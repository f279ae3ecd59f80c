"""Scale settings shared by the benchmark harnesses.

Reduced defaults (the paper: 3,000 samples, T=512, R=32, 20 repeats) so
the whole harness finishes in minutes; raise them for a paper-scale run
or shrink them further via the ``REPRO_*`` environment variables (the
CI smoke run uses those to finish in seconds).
"""

import os

from repro.parallel import available_cpus, resolve_jobs

SAMPLE_SIZE = int(os.environ.get("REPRO_SAMPLE_SIZE", 1500))
TRAINING_SIZE = int(os.environ.get("REPRO_TRAINING_SIZE", 512))
RESPONSES = int(os.environ.get("REPRO_RESPONSES", 32))
REPEATS = int(os.environ.get("REPRO_REPEATS", 1))
#: Worker processes for the throughput bench's parallel-training leg
#: (``REPRO_JOBS`` wins, via the same resolver every other layer uses;
#: the default of 4 is capped at the CPUs this process may run on).
JOBS = resolve_jobs(None, default=min(4, available_cpus()))
