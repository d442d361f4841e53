"""Run one photonstats CLI command in this process and record timing marks.

Usage:
    python3 launch.py MARKS_JSON [--trace SPANS_NPZ] [--setup-only] -- CLI_ARGS...

MARKS_JSON receives monotonic-clock marks: ``start`` (this interpreter is
running), ``import_start``/``import_end`` (importing the CLI and, through it,
the whole package), ``parse_start``/``parse_end`` (loading and validating
the scenario: the end of set-up) and ``end`` (the command has returned, so
its last output file is written), plus the command's exit ``code``.

With ``--setup-only`` the process exits as soon as the scenario is parsed,
before the first numerical call.  With ``--trace`` the package's public
functions are wrapped in spans (see tracing.py) and the spans are written
to SPANS_NPZ when the command returns.
"""

import time

START = time.monotonic()

import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402


def _write_marks(path: str, marks: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(marks, fh)


def _hook_scenario_loader(marks: dict, marks_path: str, setup_only: bool) -> None:
    """Mark the first scenario load, wherever the CLI looks the loader up."""
    import photonstats.cli
    import photonstats.config

    original = photonstats.config.load_scenario

    def load_scenario(*args, **kwargs):
        first = "parse_end" not in marks
        if first:
            marks["parse_start"] = time.monotonic()
        scenario = original(*args, **kwargs)
        if first:
            marks["parse_end"] = time.monotonic()
            if setup_only:
                marks["end"] = marks["parse_end"]
                marks["code"] = 0
                _write_marks(marks_path, marks)
                sys.stdout.flush()
                os._exit(0)
        return scenario

    for module in (photonstats.config, photonstats.cli):
        if getattr(module, "load_scenario", None) is original:
            module.load_scenario = load_scenario


def main(argv: list[str]) -> int:
    if "--" not in argv:
        print(__doc__, file=sys.stderr)
        return 2
    split = argv.index("--")
    own, cli_args = argv[:split], argv[split + 1:]
    marks_path = own[0]
    trace_path = own[own.index("--trace") + 1] if "--trace" in own else None
    setup_only = "--setup-only" in own

    marks = {"start": START, "import_start": time.monotonic()}
    import photonstats.cli

    marks["import_end"] = time.monotonic()
    marks["package_file"] = os.path.abspath(photonstats.cli.__file__)
    tracer = None
    if trace_path:
        sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
    _hook_scenario_loader(marks, marks_path, setup_only)
    try:
        photonstats.cli.main(args=cli_args, prog_name="photonstats")
        code = 0
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
    marks["end"] = time.monotonic()
    marks["code"] = code
    _write_marks(marks_path, marks)
    if tracer is not None:
        tracer.add_span("setup.import", marks["import_start"], marks["import_end"])
        if "parse_end" in marks:
            tracer.add_span("config.parse", marks["parse_start"], marks["parse_end"])
        tracer.dump(trace_path)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
