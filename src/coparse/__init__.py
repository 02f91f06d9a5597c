"""coparse: joint co-segmentation and co-labeling of tagged image corpora."""

import os

# One BLAS thread, set before numpy loads: the output bytes then do not hang on
# the host's thread count. A variable already set is kept.
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")

__version__ = "0.1.0"
