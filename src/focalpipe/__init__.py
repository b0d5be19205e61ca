"""Region-search pipeline for small-object detection in aerial-style imagery.

Geometric and statistical core: GMM focal-region generation from
annotations, crop-level ground-truth refinement, detection merging with NMS
and Incomplete Box Suppression, COCO/VOC-style evaluation, and a synthetic
scene generator with an oracle detector for closed-loop verification.
Callers import the modules (`focalpipe.pipeline`, `focalpipe.cli`, ...); the
package root exports nothing.
"""

__version__ = "0.1.0"
