"""Run one ``qbs`` command in this interpreter with spans at layer boundaries.

Usage: python3 traced_job.py SPANS_PATH <qbs arguments>

The import of ``qbs.cli`` is one span; after it every public function of
the cli, config, operators, flows, pricing and sampling modules, and
``numpy.linalg.eigh``/``eigvalsh`` (both as ``operators.eigh``), is
replaced by a wrapper that records (name, start, end, parent). The
per-eigenvalue callbacks ``normal_cdf``/``normal_pdf`` are left bare: a
span per eigenvalue would cost more than the work it measures. Spans stay
in memory and are written to SPANS_PATH as JSON when the command ends,
followed by a line with the time that writing took; installing the
wrappers is the span ``trace.install``.
The report goes to stdout exactly as ``qbs`` writes it.
"""

import sys
import time

_t0 = time.perf_counter()
_modules0 = len(sys.modules)
import qbs.cli  # noqa: E402

_t1 = time.perf_counter()
_modules = len(sys.modules) - _modules0

import functools  # noqa: E402
import inspect  # noqa: E402
import json  # noqa: E402

import numpy as np  # noqa: E402

LAYERS = ("cli", "config", "operators", "flows", "pricing", "sampling")
UNTRACED = {"normal_cdf", "normal_pdf"}

# [name, start, end, parent index or -1]; span 0 is the import.
spans = [["import", _t0, _t1, -1]]
_stack = []


def _wrap(name, fn):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        i = len(spans)
        spans.append([name, 0.0, 0.0, _stack[-1] if _stack else -1])
        _stack.append(i)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            spans[i][1] = start
            spans[i][2] = time.perf_counter()
            _stack.pop()

    return traced


def install() -> None:
    modules = [sys.modules[f"qbs.{layer}"] for layer in LAYERS]
    wrappers = {}
    for layer, mod in zip(LAYERS, modules):
        for attr, fn in vars(mod).items():
            if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                if not attr.startswith("_") and attr not in UNTRACED:
                    wrappers[fn] = _wrap(f"{layer}.{attr}", fn)
    # Rebind every module-level reference, so calls made through names
    # imported into another module are traced too.
    for mod in [sys.modules["qbs"], *modules]:
        for attr, value in list(vars(mod).items()):
            if inspect.isfunction(value) and value in wrappers:
                setattr(mod, attr, wrappers[value])
    np.linalg.eigh = _wrap("operators.eigh", np.linalg.eigh)
    np.linalg.eigvalsh = _wrap("operators.eigh", np.linalg.eigvalsh)


def main() -> int:
    start = time.perf_counter()
    install()
    spans.append(["trace.install", start, time.perf_counter(), -1])
    code = qbs.cli.main(sys.argv[2:])
    sys.stdout.flush()
    start = time.perf_counter()
    with open(sys.argv[1], "w") as out:
        out.write(json.dumps({"spans": spans, "import_modules": _modules}))
        # the cost of writing the spans, on a line of its own
        out.write("\n" + json.dumps({"write_s": time.perf_counter() - start}))
    return code


if __name__ == "__main__":
    sys.exit(main())
