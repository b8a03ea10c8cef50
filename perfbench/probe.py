"""Time importing the named modules in a fresh interpreter.

``python3 perfbench/probe.py repro.cli repro.serve.app`` prints one JSON
line with ``import_s``, the seconds the imports took.
"""

import importlib
import json
import sys
import time

if __name__ == "__main__":
    started = time.perf_counter()
    for name in sys.argv[1:]:
        importlib.import_module(name)
    print(json.dumps({"import_s": time.perf_counter() - started}))
