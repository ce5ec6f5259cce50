"""Run ``ReconServer(workers=2)`` with default options for the serve_* workloads.

Usage::

    python perfbench/server_proc.py [--trace]

Prints one JSON line ``{"url": ..., "fft_backend": ...}`` once the server
listens, then reads commands from stdin, one per line:

``trace-on``
    start recording spans (``--trace`` installs the wrappers, disabled)
    and answer ``ok``;
``stop`` (or end of input)
    drain and close the server, then print one JSON line with the
    process's memory high water (``VmHWM``) and the recorded spans, and
    exit.
"""

from __future__ import annotations

import json
import os
import resource
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from repro.nufft.fft_backend import get_fft_backend  # noqa: E402
from repro.service import ReconServer  # noqa: E402

import spans  # noqa: E402  (perfbench/spans.py: this directory is sys.path[0])


def vmhwm_kb() -> int:
    """Peak resident set of this process in kB (``ru_maxrss`` off Linux)."""
    try:
        with open("/proc/self/status", encoding="ascii") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def main() -> int:
    tracer = spans.Tracer()
    if "--trace" in sys.argv[1:]:
        spans.install(tracer)
    server = ReconServer(workers=2)
    server.start()
    print(json.dumps({
        "url": server.url,
        # the service's jobs use fft_backend="auto"; this is what it resolves to
        "fft_backend": get_fft_backend("auto").name,
        "pid": os.getpid(),
    }), flush=True)
    try:
        for line in sys.stdin:
            command = line.strip()
            if command == "trace-on":
                tracer.enabled = True
                print("ok", flush=True)
            elif command == "stop":
                break
    finally:
        server.close()
    print(json.dumps({"vmhwm_kb": vmhwm_kb(), "spans": tracer.spans}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
