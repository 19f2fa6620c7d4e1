"""Command-line front end.

Subcommands
-----------
* ``train``     - run a training run from a ``key = value`` config file
* ``verify``    - run every property suite and print a report
* ``rate``      - fit a convergence exponent to a curve file
* ``interpret`` - per-factor conditional series from an episode trace
* ``oracle``    - compare the transport solver against the brute-force oracle

Exit codes: 0 success, 1 a check or run failed, 2 configuration or usage
error, including an input that cannot be read as text, an output path
that cannot be written, or a run too large to fit in memory.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

from . import verify as verify_mod
from .harness import ConfigError, _g9, fit_rate, load_config, read_curve, read_trace, run_training
from .inference import decompose_interpretation
from .nn import TrainingError

__all__ = ["main"]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wavopt",
        description="Sliced-transport variational optimization toolkit",
    )
    sub = parser.add_subparsers(dest="command", metavar="command")

    p_train = sub.add_parser("train", help="run training from a config file")
    p_train.add_argument("--config", metavar="PATH", required=True, help="key = value config file")
    p_train.add_argument("--seed", type=int, metavar="U64", help="override the config seed")
    p_train.add_argument("--episodes", type=int, metavar="N", help="override the episode count")
    p_train.add_argument("--out", metavar="DIR", default=".", help="output directory")

    p_verify = sub.add_parser("verify", help="run all property suites")
    p_verify.add_argument("--seed", type=int, metavar="U64", default=0)
    p_verify.add_argument("--out", metavar="DIR", help="also write verify_report.txt here")
    p_verify.add_argument(
        "--quick", action="store_true", help="smaller trial counts (smoke test, not acceptance)"
    )

    p_rate = sub.add_parser("rate", help="fit a convergence exponent to a curve file")
    p_rate.add_argument("curve", metavar="CURVE", help="curve CSV produced by train")
    p_rate.add_argument("--burn-in", type=float, default=0.2, metavar="FRAC", help="fraction discarded, in [0, 1)")

    p_int = sub.add_parser("interpret", help="conditional series from an episode trace")
    p_int.add_argument("trace", metavar="TRACE", help="CSV: p_trajectory column plus one column per factor")
    p_int.add_argument("--out", metavar="DIR", help="write interpretation.csv here instead of stdout")

    p_oracle = sub.add_parser("oracle", help="brute-force transport comparisons")
    p_oracle.add_argument("--seed", type=int, metavar="U64", default=0)
    p_oracle.add_argument("--pairs", type=int, default=1000, help="random measure pairs to compare")

    return parser


def _cmd_train(args) -> int:
    config = load_config(args.config)
    overrides = {}
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.episodes is not None:
        overrides["episodes"] = args.episodes
    if overrides:
        config = dataclasses.replace(config, **overrides).validate()
    try:
        result = run_training(config, args.out)
    except TrainingError as exc:
        print(f"training aborted: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        detail = f" ({exc})" if str(exc) else ""
        raise ConfigError(f"{args.config} does not fit in memory{detail}") from exc
    print(f"curve      {result.curve_path}")
    print(f"checkpoint {result.checkpoint_path}")
    print(f"summary    {result.summary_path}")
    final = result.final_estimate
    parts = [f"J_g{i + 1}={_g9(v)}" for i, v in enumerate(final.constraints)]
    print(f"final reward objective {_g9(final.reward)} " + " ".join(parts))
    if result.shipped == "final":
        # no gate nominee passed: the last actor shipped unchecked, and
        # the exit code stays 0, so a broken bound is said here
        limit = config.bound + config.tolerance_fixed
        broken = [
            f"final_constraint_{i + 1}={_g9(v)} > {_g9(limit)}"
            for i, v in enumerate(final.constraints)
            if v > limit
        ]
        if broken:
            print(
                "warning: shipped the unchecked final actor (no gate nominee passed) and it breaks "
                "bound + tolerance_fixed: " + ", ".join(broken),
                file=sys.stderr,
            )
    return 0


def _check_seed(args) -> None:
    # numpy refuses a negative seed with a traceback
    if args.seed < 0:
        raise ConfigError(f"--seed must be >= 0, got {args.seed}")


def _cmd_verify(args) -> int:
    _check_seed(args)
    report = Path(args.out) / "verify_report.txt" if args.out else None
    if report:
        # an unusable --out fails here, before the checks run
        report.parent.mkdir(parents=True, exist_ok=True)
        report.write_text("")
    results = verify_mod.run_all(full=not args.quick, seed=args.seed)
    lines = [r.report_line() for r in results]
    for result, line in zip(results, lines):
        print(line)
        # timings go to stderr, so stdout and the report stay byte-stable
        print(result.line(), file=sys.stderr)
    if report:
        report.write_text("\n".join(lines) + "\n")
    return 0 if all(r.passed for r in results) else 1


def _cmd_rate(args) -> int:
    if not 0.0 <= args.burn_in < 1.0:  # refuses nan too
        raise ConfigError(f"--burn-in must be a number in [0, 1), got {args.burn_in}")
    path = Path(args.curve)
    try:
        curve = read_curve(path)
    except ConfigError as exc:
        if isinstance(exc.__cause__, UnicodeDecodeError):
            raise  # names the file already, as for a config or a trace
        raise ConfigError(f"not a curve file: {path} ({exc})") from exc
    if "cum_return" not in curve:
        raise ConfigError(f"not a curve file: {path} (no cum_return column)")
    fit = fit_rate(curve["cum_return"], burn_in_frac=args.burn_in)
    if fit.skipped:
        print(f"rate fit skipped: {fit.notice}")
        return 0
    print(f"exponent {fit.exponent:.2f} +/- {fit.stderr:.2f} ({fit.n_points} fit points)")
    return 0


def _cmd_interpret(args) -> int:
    factor_names, rows = read_trace(Path(args.trace))
    out_lines = ["step,factor,probability,conditional,capped"]
    for step, (lineno, row) in enumerate(rows):
        try:
            factors = decompose_interpretation(row[0], row[1:], names=factor_names)
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: {exc}") from exc
        for f in factors:
            out_lines.append(
                f"{step},{f.name},{_g9(f.probability)},{_g9(f.capped_ratio)},{int(f.capped)}"
            )
    text = "\n".join(out_lines) + "\n"
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        (out / "interpretation.csv").write_text(text)
        print(f"wrote {out / 'interpretation.csv'} ({len(rows)} steps, {len(factor_names)} factors)")
    else:
        sys.stdout.write(text)
    return 0


def _cmd_oracle(args) -> int:
    _check_seed(args)
    if args.pairs < 1:
        raise ConfigError(f"--pairs must be >= 1, got {args.pairs}")
    result = verify_mod.check_transport_vs_oracle(pairs=args.pairs, seed=args.seed)
    print(result.report_line())
    return 0 if result.passed else 1


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse already printed usage; --help exits 0, errors exit 2
        return int(exc.code or 0)
    if args.command is None:
        parser.print_usage(sys.stderr)
        return 2

    handlers = {
        "train": _cmd_train,
        "verify": _cmd_verify,
        "rate": _cmd_rate,
        "interpret": _cmd_interpret,
        "oracle": _cmd_oracle,
    }
    try:
        return handlers[args.command](args)
    except (ConfigError, OSError) as exc:
        # OSError: a missing or unreadable input, or an output path that is a file
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
