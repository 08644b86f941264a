"""Cold-start probe: the time a fresh interpreter takes to import gptkit.cli
and build quantum_theory(n), which every `gpt` invocation pays.

    python3 bench/setup_probe.py <checkout root> <n>

Prints the seconds.
"""

import sys
import time

start = time.perf_counter()
sys.path.insert(0, f"{sys.argv[1]}/src")
import gptkit.cli  # noqa: E402,F401
from gptkit.states import quantum_theory  # noqa: E402

quantum_theory(int(sys.argv[2]))
print(time.perf_counter() - start)
