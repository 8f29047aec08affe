"""One cold set-up, timed in a fresh interpreter: import hpid's CLI, then read,
parse and validate each config file named on the command line.  Prints the
seconds it took."""

import sys
import time

t0 = time.perf_counter()
import hpid.cli  # noqa: E402

for path in sys.argv[1:]:
    with open(path, encoding="utf-8") as fh:
        hpid.cli.parse_config(fh.read())
print(repr(time.perf_counter() - t0))
