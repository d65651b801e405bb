"""Command-line front end.

Stage subcommands run stages of a run directory from persisted artifacts;
``run`` runs the whole pipeline. Both print the run report, as ``report``
does. Exit codes: 0 ok, 2 config error, 3 data error, 4 backend error,
141 stdout closed by its reader (``steplab report | head``), 143
terminated by SIGTERM, 1 anything else. No command returns 5 (validator
infrastructure error): validate counts an answer whose validator fails as wrong.
"""

import argparse
import json
import logging
import math
import os
import signal
import sys
import threading
from dataclasses import asdict
from pathlib import Path

from .errors import ConfigError, DataError, Terminated, exit_code
from .ioutil import atomic_write_text, input_file
from .pipeline import OPTIONS, STAGE_TABLE, comma_list, load_config, run_pipeline, summarize_run

log = logging.getLogger(__name__)


def _stage_parser(sub, name: str, help_text: str, stages) -> argparse.ArgumentParser:
    """A subcommand running ``stages``, with the flag of each field they read
    that has one. Values reach load_config as text; RunConfig checks them."""
    p = sub.add_parser(name, help=help_text)
    p.set_defaults(stages=list(stages))
    p.add_argument("--out-dir", required=True)
    p.add_argument("--force", action="store_true", default=None, help="re-run even if up to date")
    for key in dict.fromkeys(key for stage in stages for key in STAGE_TABLE[stage].reads):
        flag, choices = OPTIONS[key]["flag"], OPTIONS[key]["choices"]
        if flag:
            p.add_argument(flag, default=None, dest=key, help=choices and "from " + ", ".join(choices))
    return p


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="steplab", description=__doc__)
    parser.add_argument("--config", help="key = value config file")
    parser.add_argument("--seed", default=None)
    parser.add_argument("--backend", default=None, help="backend URL or reference:<fixture path>")
    parser.add_argument("--cache-dir", default=None)
    sub = parser.add_subparsers(dest="command", required=True)

    for stage in STAGE_TABLE.values():
        if stage.command:
            _stage_parser(sub, stage.command, stage.help, (*stage.runs_first, stage.name))

    p = _stage_parser(sub, "run", "run the full pipeline end to end", STAGE_TABLE)
    p.add_argument("--stages", type=comma_list, help="comma-separated stage subset")

    p = sub.add_parser("analyze-complexity", help="token-cost formulas for labeling strategies")
    p.add_argument("--n", type=int, required=True, help="number of reasoning steps")
    p.add_argument("--s-bar", type=float, required=True, help="average tokens per step")
    p.add_argument("--m", type=int, default=1, help="rollouts per prefix")
    p.add_argument("--big-s", type=int, default=1, help="sampled candidate answers")
    p.add_argument("--t", type=float, default=1.0, help="average answer tokens")
    p.add_argument("--q-len", type=float, default=0.0, help="question tokens")
    p.add_argument("--natural-log", action="store_true", help="use ln instead of log2 for binary search")
    p.add_argument("--out", default=None, help="write the report JSON here")

    p = sub.add_parser("analyze-bias", help="subsampled-max bias and variance study")
    p.add_argument("--pool-file", required=True, help="JSON array of values, or one value per line")
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--replicates", type=int, default=10000)
    p.add_argument("--exhaustive", action="store_true")
    p.add_argument("--out", default=None)

    p = sub.add_parser("report", help="summarize a run directory")
    p.add_argument("--out-dir", required=True)

    return parser


def _load_pool_file(path: str) -> list[float]:
    text = input_file(path, "pool").read_text(encoding="utf-8").strip()
    if not text:
        raise ConfigError(f"pool file {path} is empty")
    try:
        values = json.loads(text) if text[0] == "[" else [float(line) for line in text.splitlines() if line.strip()]
        if not all(type(v) in (int, float) and math.isfinite(v) for v in values):
            raise ValueError("its values must be finite numbers")
    except (ValueError, OverflowError) as exc:
        raise DataError(f"pool file {path}: {exc}") from exc
    return [float(v) for v in values]


def _emit_report(report: dict, out: str | None) -> None:
    text = json.dumps(report, ensure_ascii=False, indent=1)
    if out:
        atomic_write_text(out, text)
    print(text, flush=True)


def _cmd_analyze_complexity(args: argparse.Namespace) -> int:
    from .analysis import ComplexityParams, tokens_mathshepherd, tokens_mcnig, tokens_omegaprm

    params = ComplexityParams(
        steps=args.n,
        tokens_per_step=args.s_bar,
        rollouts_per_prefix=args.m,
        sampled_answers=args.big_s,
        answer_tokens=args.t,
        question_tokens=args.q_len,
    )
    report = {
        "params": asdict(params),
        "tokens": {
            "mathshepherd": tokens_mathshepherd(params),
            "omegaprm": tokens_omegaprm(params, natural_log=args.natural_log) if params.steps >= 2 else None,
            "mcnig": tokens_mcnig(params),
        },
        "log_base": "e" if args.natural_log else "2",
    }
    _emit_report(report, args.out)
    return 0


def _cmd_analyze_bias(args: argparse.Namespace, seed: int) -> int:
    from .analysis import exhaustive_bias, subsample_bias_variance

    pool = _load_pool_file(args.pool_file)
    replicates = 0 if args.exhaustive else args.replicates
    if args.exhaustive:
        bias, variance = exhaustive_bias(pool, args.s)
    else:
        bias, variance = subsample_bias_variance(pool, args.s, replicates, seed=seed)
    _emit_report({
        "pool_size": len(pool), "pool_max": max(pool), "s": args.s, "replicates": replicates,
        "bias": bias, "variance": variance, "exact": args.exhaustive,
    }, args.out)
    return 0


def _terminate(signum, frame) -> None:
    raise Terminated("terminated by SIGTERM")


def main(argv: list[str] | None = None) -> int:
    """Run one command; its exit code. On the main thread, SIGTERM raises
    :class:`Terminated` while the command runs, so a run records it as it
    does an interrupt, and the previous handler comes back after."""
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    if threading.current_thread() is not threading.main_thread():
        return _main(args)
    previous = signal.signal(signal.SIGTERM, _terminate)
    try:
        return _main(args)
    finally:
        signal.signal(signal.SIGTERM, signal.SIG_DFL if previous is None else previous)


def _main(args: argparse.Namespace) -> int:
    try:
        if args.command.startswith("analyze-") and args.out:  # checked before anything is computed
            out = Path(args.out)
            if out.is_dir() or not next(p for p in out.parents if p.exists()).is_dir():
                raise ConfigError(f"--out {args.out} is a directory or below a file; name a file to write")
        if args.command == "analyze-complexity":
            return _cmd_analyze_complexity(args)
        if args.command == "analyze-bias":
            return _cmd_analyze_bias(args, seed=load_config(overrides={"seed": args.seed}).seed)
        if args.command != "report":
            cfg = load_config(args.config, overrides={name: getattr(args, name, None) for name in OPTIONS})
            run_pipeline(cfg, args.stages)
        print(summarize_run(args.out_dir), flush=True)  # a closed pipe fails here, not at exit
        return 0
    except (Exception, Terminated) as exc:  # noqa: BLE001
        code = exit_code(exc)
        if isinstance(exc, BrokenPipeError):
            # Nobody reads stdout any more: log nothing, and send what is
            # still buffered to devnull so the interpreter's last flush passes.
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
        else:
            # Exit code 1 means an unexpected error: log its traceback.
            log.error("%s: %s", type(exc).__name__, exc, exc_info=code == 1)
        return code


if __name__ == "__main__":
    raise SystemExit(main())
