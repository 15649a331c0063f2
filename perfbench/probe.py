"""Set-up probe: run one CLI invocation up to the entry of its workflow function.

    python3 perfbench/probe.py <src dir> <module:function> <flowtrack arguments...>

Prints the monotonic clock (the same clock in every process on Linux) at the
moment the workflow function is entered, then exits at once, so the caller
can time process start, imports, config, motion and checkpoint loading.
"""

import importlib
import os
import sys
import time


def main() -> None:
    src, target, *argv = sys.argv[1:]
    sys.path.insert(0, src)
    from flowtrack import cli

    module, attr = target.split(":")

    def entered(*args, **kwargs):
        print(repr(time.perf_counter()), flush=True)
        os._exit(0)

    setattr(importlib.import_module(module), attr, entered)
    sys.exit(cli.main(argv) or 3)  # returning at all means the workflow was never entered


if __name__ == "__main__":
    main()
