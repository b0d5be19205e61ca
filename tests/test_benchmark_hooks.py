"""The benchmark's tracer wraps focalpipe functions by name; installing it
fails when a name it traces is renamed or removed."""

import importlib.util
from pathlib import Path

from focalpipe import pipeline

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_tracer_resolves_every_traced_name():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    original = pipeline.run_scene
    tracer = tracing.Tracer()
    try:
        tracer.install()
        assert pipeline.run_scene is not original
    finally:
        tracer.uninstall()
    assert pipeline.run_scene is original
