"""The bitmask kernels: cell enumeration and GF(2) elimination."""

from .pure import (enumerate_hom_cells, enumerate_zero_cells, gf2_in_span,
                   gf2_rank)

BACKEND = "pure"  # read only by perfbench/worker.py; drop when it stops
_core = None  # read only by perfbench/tracing.py; drop when it stops

