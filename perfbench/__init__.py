"""End-to-end verification benchmark for the TAO reproduction.

``python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1``
drives the real serving stack (``TAOService`` and ``ProcessFleet``) on one
seeded workload and prints its end-to-end metrics (``--trace 0``) or its
per-layer metrics (``--trace 1``).  See ``perfbench/README.md``.
"""
