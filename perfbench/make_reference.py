"""Write reference/crop_fullscale.npz, the image crop_fullscale checks against.

Run from the root of a checkout, only when a change is meant to alter the
images:

    python3 perfbench/make_reference.py

The file keeps the row and column sums of the reference trial's image
and every ``STRIDE``-th column in full.
"""

import os
import sys

import numpy as np

STRIDE = 5

if __name__ == "__main__":
    here = os.path.dirname(os.path.abspath(__file__))
    sys.path.insert(0, os.path.join(os.path.dirname(here), "src"))
    sys.path.insert(0, here)
    from workloads import REFERENCE, CropFullscale

    workload = CropFullscale(None)
    image = workload.op(workload.setup(0), 0)["images"][0]
    os.makedirs(os.path.dirname(REFERENCE), exist_ok=True)
    np.savez_compressed(
        REFERENCE,
        shape=np.array(image.shape),
        max_abs=np.abs(image).max(),
        row_sums=image.sum(axis=1),
        col_sums=image.sum(axis=0),
        stride=STRIDE,
        columns=image[:, ::STRIDE],
    )
    print(f"wrote {REFERENCE}: image {image.shape}, max |value| {np.abs(image).max():.6g}")
