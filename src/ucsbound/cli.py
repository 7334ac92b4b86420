"""Command-line front end.

Every subcommand prints a short human summary to stdout and returns its
report; :func:`main` writes it with ``--out``.  ``--out -`` streams the
JSON to stdout and sends the summary to stderr, so that stdout is the
JSON alone.  When a report is written to a file, a run manifest
goes next to it as ``<out>.manifest.json``.  Reports are written
atomically: a temp file in the target directory is renamed into place,
so readers never observe a half-written JSON.  A report, manifest or CSV
path that is empty, a directory, or in a missing directory exits 2
before the run, and so do two of them that name one file, and
``--csv -``: the sheet goes to a file only.

Exit codes: 0 on success, 1 when the requested check or search failed
on the merits (a verification mismatch, a bisection bracket that does
not straddle, an entropy violation), 2 on bad input.

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
import tempfile

from . import __version__
from .config import SearchConfig
from .errors import (
    BracketFailure,
    GridTooLarge,
    UcsBoundError,
    VerificationFailed,
)

SCHEMA_VERSION = 6

__all__ = ["main", "build_parser", "SCHEMA_VERSION"]


def _utcnow() -> str:
    from datetime import datetime, timezone

    return datetime.now(timezone.utc).isoformat(timespec="seconds")


def _require_writable(path: str) -> str:
    """The directory a write to ``path`` goes to; raises the ``OSError`` of
    that write if ``path`` is empty, a directory, or in a missing directory."""
    directory = os.path.dirname(path) or "."
    if os.path.isdir(path):
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
    if not (path and os.path.isdir(directory)):
        raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), path)
    return directory


@contextlib.contextmanager
def _atomic_file(path: str):
    """A text file for the block to write, renamed to ``path`` when the block
    ends, and removed if the block raises: readers never see it half written."""
    directory = _require_writable(path)  # refused before a temp file is made
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".ucsbound-", suffix=".tmp")
        with os.fdopen(fd, "w") as fh:
            yield fh
        # mkstemp makes the file 0600; give it the mode open() would.
        umask = os.umask(0)
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)
        os.replace(tmp, path)
    except BaseException as exc:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)
        if isinstance(exc, OSError):  # name the given path, not the temp file
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


def _search_config(args: argparse.Namespace) -> SearchConfig:
    """The default search with the knobs given on the command line applied."""
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
    from .ucslab import _check, _chunks, _columns, _enum_size, _least, _merged, _sheet
    from .ucslab import sample_or_closed

    n, sampled = args.n, args.sample is not None
    if sampled:  # the only path that builds FamilySets; its masks are one chunk
        chunks = [[fam.mask for fam in sample_or_closed(n, args.sample, args.seed)]]
    else:
        chunks = _chunks(_enum_size(n))

    # One pass over the chunks, keeping the count, the least (peak, mask)
    # and the check so far; the sheet is written a chunk at a time.
    count, least, check = 0, None, None
    with contextlib.nullcontext() if args.csv is None else _atomic_file(args.csv) as sheet:
        for index, masks in enumerate(chunks):
            count += len(masks)
            part = _check(n, masks) if args.check_entropy else None
            if part is not None:
                check = part if check is None else _merged(check, part)
            columns, tops = _columns(n, masks)
            if sheet is not None:
                h_star = {} if part is None else part.h_star_by_size
                sheet.write(_sheet(n, masks, columns, tops, h_star, header=not index))
            least = _least(least, tops, masks)
    min_pa, witness = (None, None) if least is None else (least[0], hex(least[1]))

    violations = [] if check is None else list(check.violations)
    payload: dict = {
        "n": n,
        "family_count": count,
        "sampled": sampled,
        "min_pA": min_pa,
        "witness_mask": witness,
        "violations": violations,
    }
    if check is not None:
        keys = ("checked", "skipped", "ratio_min", "ratio_max")
        payload["entropy_check"] = {k: getattr(check, k) for k in keys}

    source = "sampled" if sampled else "enumerated"
    print(
        f"n={n}: {count} {source} OR-closed families, "
        f"min p_A = {min_pa} (witness {witness}), {len(violations)} violations"
    )
    return payload


def cmd_maxcorr(args: argparse.Namespace) -> dict:
    from .maxcorr import binary_coupling, correlation_spectrum, maximal_correlation, pearson

    p, q, r = args.pq
    joint = binary_coupling(p, q, r)
    spectrum = correlation_spectrum(joint)
    rho = maximal_correlation(joint)
    # Both marginals carry mass once the spectrum exists, so neither
    # variance of a 2x2 coupling is zero and pearson() does not raise
    # RankDeficient.
    rho_pearson = pearson(joint)
    print(
        f"maximal correlation {rho:.9f}; pearson {rho_pearson:.9f}; "
        f"top singular value {spectrum[0]:.9f}"
    )
    return {
        "source": {"kind": "pq", "p": p, "q": q, "joint_on": r},
        "maximal_correlation": rho,
        "pearson": rho_pearson,
        "singular_values": [float(s) for s in spectrum],
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
    grid, rounds, starts = SearchConfig()
    sub.add_argument("--grid", type=int, help=f"seed points per face axis (default {grid})")
    sub.add_argument("--refine-rounds", type=int, help=f"refinement rounds (default {rounds})")
    sub.add_argument(
        "--multistart",
        type=int,
        help=f"most seed points to refine; a point with a lower neighbour on the seed "
        f"grid is not refined (default {starts})",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ucsbound",
        description="Entropy-ratio certificates for union-closed frequency bounds.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    subs = parser.add_subparsers(dest="subcommand", required=True)

    p = subs.add_parser(
        "gamma-hat",
        help="evaluate the certificate bound at one mean target t",
    )
    p.add_argument("--t", type=float, required=True, help="mean target in (0, 1/2)")
    p.add_argument(
        "--alpha",
        default="auto",
        help='blend weight: a number to pin, or "auto" to maximise over [0, 1] (default)',
    )
    _add_search_knobs(p)
    _add_common(p)
    p.set_defaults(func=cmd_gamma_hat)

    p = subs.add_parser("tmax", help="bisect for the largest certifiable t")
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
    p.set_defaults(func=cmd_tmax)

    p = subs.add_parser(
        "verify-paper",
        help="re-run the published reference evaluation and compare against it",
    )
    p.add_argument("--strict", action="store_true", help="tighten the ratio tolerance to 1e-6")
    _add_search_knobs(p)
    _add_common(p)
    p.set_defaults(func=cmd_verify_paper)

    p = subs.add_parser(
        "enumerate",
        help="enumerate (or sample) OR-closed families and report frequencies",
    )
    p.add_argument("--n", type=int, required=True, help="ground-set size")
    p.add_argument("--csv", help="write one row per family here")
    p.add_argument(
        "--check-entropy",
        action="store_true",
        help="also check the coupling-entropy ceiling H(X or Y) <= log2 |A| per family",
    )
    p.add_argument(
        "--sample",
        type=int,
        help="sample this many random closures instead of enumerating",
    )
    p.add_argument("--seed", type=int, default=0, help="sampling seed")
    _add_common(p)
    p.set_defaults(func=cmd_enumerate)

    p = subs.add_parser("maxcorr", help="maximal correlation of a 2x2 Bernoulli coupling")
    p.add_argument(
        "--pq",
        type=float,
        nargs=3,
        required=True,
        metavar=("P", "Q", "R"),
        help="2x2 coupling of Bernoulli(P), Bernoulli(Q) with joint on-mass R",
    )
    _add_common(p)
    p.set_defaults(func=cmd_maxcorr)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
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
