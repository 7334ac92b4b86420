"""Command-line front end.

Every subcommand prints a short human summary to stdout and returns its
report; :func:`main` writes it with ``--out``.  ``--out -`` streams the
JSON to stdout and sends the summary to stderr, so that stdout is the
JSON alone.  When a report is written to a file, a run manifest
goes next to it as ``<out>.manifest.json``.  Reports are written
atomically: a temp file in the target directory is renamed into place,
so readers never observe a half-written JSON.  A report, manifest or CSV
path that is empty, a directory, in a missing directory, or an
existing file that is not a regular one (a FIFO, a device) exits 2
before the run, and so do two of them that name one file, and
``--csv -``: the sheet goes to a file only.

Exit codes: 0 on success, 1 when the requested check or search failed
on the merits (a verification mismatch, a bisection bracket that does
not straddle, an entropy violation), 2 on bad input.

The parser registers every subcommand with its help, but gives
arguments only to the subcommands named on the command line, so that
``enumerate``, ``maxcorr``, ``--help`` and ``--version`` never load the
search, whose defaults the search commands' help shows.

``--no-timestamps`` strips wall-clock fields from reports and manifests
so that identical invocations produce byte-identical files; the test
suite relies on this.
"""

from __future__ import annotations

import argparse
import contextlib
import errno
import json
import os
import sys

from . import __version__
from .errors import (
    BracketFailure,
    GridTooLarge,
    UcsBoundError,
    VerificationFailed,
)

SCHEMA_VERSION = 9

__all__ = ["main", "build_parser", "SCHEMA_VERSION"]


def _utcnow() -> str:
    from datetime import datetime, timezone

    return datetime.now(timezone.utc).isoformat(timespec="seconds")


def _require_writable(path: str) -> None:
    """Raise the ``OSError`` of a write to ``path`` if it is empty, a
    directory, or in a missing directory, and a ``ValueError`` if it exists
    and is not a regular file (a FIFO, a device) that renaming would replace."""
    if os.path.isdir(path):
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
    if not (path and os.path.isdir(os.path.dirname(path) or ".")):
        raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), path)
    if os.path.exists(path) and not os.path.isfile(path):
        raise ValueError(f"{path!r} is not a regular file, and would be replaced by one")


@contextlib.contextmanager
def _atomic_file(path: str):
    """A text file for the block to write, renamed to ``path`` when the block
    ends, and removed if the block raises: readers never see it half written.
    :func:`main` has checked ``path`` before the run; an ``OSError`` after
    that which names no file or the temp file is raised again naming
    ``path``, and one that names another path, which the block itself
    touched, passes through unchanged."""
    directory = os.path.dirname(path) or "."
    tmp = None
    try:
        # A fresh random name until one is free; the kernel applies the
        # umask to 0o666, so the file gets the mode open() would give it.
        while tmp is None:
            name = os.path.join(directory, f".ucsbound-{os.urandom(6).hex()}.tmp")
            with contextlib.suppress(FileExistsError):
                fd = os.open(name, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
                tmp = name
        with os.fdopen(fd, "w") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException as exc:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)
        # Until the temp file is made, only its open has run, and its error names it.
        if isinstance(exc, OSError) and (tmp is None or exc.filename in (None, tmp)):
            raise OSError(exc.errno, exc.strerror, path) from exc
        raise


def _dump_json(payload: dict) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _strip_timing(value):
    """``value`` without its ``wall_time_ms`` keys, at any depth."""
    if isinstance(value, dict):
        return {k: _strip_timing(v) for k, v in value.items() if k != "wall_time_ms"}
    if isinstance(value, list):
        return [_strip_timing(v) for v in value]
    return value


def _emit(args: argparse.Namespace, payload: dict, started_at: str | None, extra: tuple) -> None:
    """Write the report (and a manifest of what ran, when going to a file)."""
    if args.out is None:
        return
    if args.no_timestamps:
        payload = _strip_timing(payload)
    text = _dump_json({**payload, "schema_version": SCHEMA_VERSION})
    if args.out == "-":
        sys.stdout.write(text)
        return
    with _atomic_file(args.out) as fh:
        fh.write(text)
    manifest = {
        "subcommand": args.subcommand,
        "parameters": {k: v for k, v in vars(args).items() if k not in ("func", "subcommand")},
        "tool_version": __version__,
        "schema_version": SCHEMA_VERSION,
        "started_at": started_at,
        "finished_at": None if args.no_timestamps else _utcnow(),
        "outputs": (args.out, *extra),
    }
    with _atomic_file(args.out + ".manifest.json") as fh:
        fh.write(_dump_json(manifest))


def _search_config(args: argparse.Namespace):
    """The default search with the knobs given on the command line applied."""
    from .optimizer import SearchConfig

    given = zip(SearchConfig._fields, (args.grid, args.refine_rounds, args.multistart))
    return SearchConfig(**{k: v for k, v in given if v is not None})


def _parse_alpha(raw: str):
    if raw == "auto":
        return "auto"
    try:
        return float(raw)
    except ValueError:
        raise ValueError(f'--alpha must be "auto" or a number, got {raw!r}') from None


# -- subcommands -----------------------------------------------------------


def cmd_gamma_hat(args: argparse.Namespace) -> dict:
    from .optimizer import gamma_hat

    cert = gamma_hat(args.t, _parse_alpha(args.alpha), _search_config(args))
    verdict = "certifies" if cert.certifies else "does not certify"
    gap = "pinned" if cert.alpha_gap is None else f"gap {cert.alpha_gap:.1e}"
    print(
        f"t={cert.t}: bound {cert.gamma_hat_lower:.10f} at alpha={cert.alpha_star:.6f} "
        f"({gap}, {cert.evaluations} evaluations) -> {verdict} t"
    )
    return cert.to_json_dict()


def cmd_tmax(args: argparse.Namespace) -> dict:
    from .optimizer import find_tmax

    result = find_tmax(_search_config(args), args.margin, tuple(args.bracket), args.t_tol)
    print(
        f"largest certified t: {result.t_certified:.7f} "
        f"(ceiling {result.t_ceiling:.7f}, margin {result.margin}, {result.steps} steps)"
    )
    return result.to_json_dict()


def cmd_verify_paper(args: argparse.Namespace) -> dict:
    from .optimizer import REFERENCE_BETA, REFERENCE_RATIO, verify_reference_point

    cert = verify_reference_point(config=_search_config(args), strict=args.strict)
    fam = cert.argmin
    print(f"reference evaluation reproduced (strict={args.strict}):")
    print(f"  min_ratio {cert.gamma_hat_lower:.10f}  (published {REFERENCE_RATIO})")
    print(f"  argmin a1={fam.a1:.7f} a2={fam.a2:.7f} b1={fam.b1:.7f} b2={fam.b2:.7f}")
    print(f"  beta {fam.beta:.7f}  (published {REFERENCE_BETA})")
    return cert.to_json_dict()


def cmd_enumerate(args: argparse.Namespace) -> dict:
    from .ucslab import scan

    with contextlib.nullcontext() if args.csv is None else _atomic_file(args.csv) as sheet:
        count, (min_pa, mask), check = scan(args.n, sheet)
    witness = hex(mask)

    violations = list(check.violations)
    payload: dict = {
        "n": args.n,
        "family_count": count,
        "min_pA": min_pa,
        "witness_mask": witness,
        "violations": violations,
    }
    if args.check_entropy:
        payload["entropy_check"] = {"checked": check.checked, "skipped": check.skipped}

    print(
        f"n={args.n}: {count} enumerated OR-closed families, "
        f"min p_A = {min_pa} (witness {witness}), {len(violations)} violations"
    )
    return payload


def cmd_maxcorr(args: argparse.Namespace) -> dict:
    from .maxcorr import binary_coupling, maximal_correlation

    p, q, r = args.pq
    rho = maximal_correlation(binary_coupling(p, q, r))
    print(f"maximal correlation {rho:.9f}")
    return {
        "source": {"kind": "pq", "p": p, "q": q, "joint_on": r},
        "maximal_correlation": rho,
    }


# -- parser ----------------------------------------------------------------


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--out", help="write a JSON report here ('-' for stdout)")
    sub.add_argument(
        "--no-timestamps",
        action="store_true",
        help="omit wall-clock fields so identical runs give identical bytes",
    )


def _add_search_knobs(sub: argparse.ArgumentParser) -> None:
    from .optimizer import SearchConfig

    grid, rounds, starts = SearchConfig()
    sub.add_argument("--grid", type=int, help=f"seed points per face axis (default {grid})")
    sub.add_argument("--refine-rounds", type=int, help=f"refinement rounds (default {rounds})")
    sub.add_argument(
        "--multistart",
        type=int,
        help=f"most seed points to refine; a point with a lower neighbour on the seed "
        f"grid is not refined (default {starts})",
    )


def build_parser(argv: list[str]) -> argparse.ArgumentParser:
    """The parser for the command line ``argv``: every subcommand, with
    arguments only for those that ``argv`` names."""
    parser = argparse.ArgumentParser(
        prog="ucsbound",
        description="Entropy-ratio certificates for union-closed frequency bounds.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    subs = parser.add_subparsers(dest="subcommand", required=True)

    def add(name: str, func, help: str) -> argparse.ArgumentParser | None:
        """Register the subcommand ``name``; its parser, to add arguments to,
        if ``argv`` names it."""
        sub = subs.add_parser(name, help=help)
        sub.set_defaults(func=func)
        return sub if name in argv else None

    if p := add("gamma-hat", cmd_gamma_hat, "evaluate the certificate bound at one mean target t"):
        p.add_argument("--t", type=float, required=True, help="mean target in (0, 1/2)")
        p.add_argument(
            "--alpha",
            default="auto",
            help='blend weight: a number to pin, or "auto" to maximise over [0, 1] (default)',
        )
        _add_search_knobs(p)
        _add_common(p)

    if p := add("tmax", cmd_tmax, "bisect for the largest certifiable t"):
        p.add_argument("--margin", type=float, default=1e-7, help="certify bound > 1 + margin")
        p.add_argument(
            "--bracket",
            type=float,
            nargs=2,
            default=(0.37, 0.40),
            metavar=("LO", "HI"),
            help="initial bisection bracket (default 0.37 0.40)",
        )
        p.add_argument("--t-tol", type=float, default=1e-6, help="final bracket width")
        _add_search_knobs(p)
        _add_common(p)

    if p := add(
        "verify-paper",
        cmd_verify_paper,
        "re-run the published reference evaluation and compare against it",
    ):
        p.add_argument("--strict", action="store_true", help="tighten the ratio tolerance to 1e-6")
        _add_search_knobs(p)
        _add_common(p)

    if p := add("enumerate", cmd_enumerate, "enumerate OR-closed families and report frequencies"):
        p.add_argument("--n", type=int, required=True, help="ground-set size")
        p.add_argument("--csv", help="write one row per family here")
        p.add_argument(
            "--check-entropy",
            action="store_true",
            help="also count the families the coupling-entropy ceiling "
            "H(X or Y) <= log2 |A| covers",
        )
        _add_common(p)

    if p := add("maxcorr", cmd_maxcorr, "maximal correlation of a 2x2 Bernoulli coupling"):
        p.add_argument(
            "--pq",
            type=float,
            nargs=3,
            required=True,
            metavar=("P", "Q", "R"),
            help="2x2 coupling of Bernoulli(P), Bernoulli(Q) with joint on-mass R",
        )
        _add_common(p)

    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = build_parser(argv).parse_args(argv)
    started = None if args.no_timestamps else _utcnow()
    extra = () if getattr(args, "csv", None) is None else (args.csv,)  # enumerate --csv
    try:
        if "-" in extra:
            raise ValueError("--csv - is not supported; give the sheet a file path")
        report = () if args.out in (None, "-") else (args.out, args.out + ".manifest.json")
        written: set[str] = set()
        for path in (*report, *extra):  # refused before the run, not after it
            _require_writable(path)
            real = os.path.realpath(path)
            if real in written:
                raise ValueError(f"two outputs would be written to one file, {real!r}")
            written.add(real)
        with contextlib.redirect_stdout(sys.stderr if args.out == "-" else sys.stdout):
            payload = args.func(args)
        _emit(args, payload, started, extra)
        return 1 if payload.get("violations") else 0
    except (VerificationFailed, BracketFailure) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except GridTooLarge as exc:
        print(f"error: {exc}; lower --grid", file=sys.stderr)
        return 2
    except (UcsBoundError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
