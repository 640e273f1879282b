import os
import sys

# No gaussvol path gains from BLAS threads; idle OpenBLAS workers only burn CPU.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .cli import main  # noqa: E402

if __name__ == "__main__":
    sys.exit(main())
