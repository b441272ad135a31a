"""Command line: generate instances, run the engines, verify, sweep campaigns."""

from __future__ import annotations

import argparse
import json
import sys

from .harness import (
    CHECK_DESCRIPTIONS,
    REQUEST_MODELS,
    RatioRow,
    generate_instance,
    report_to_csv,
    resolve_alpha,
    run_campaign,
    verify_anchored_properties,
)
from .metric import InputError, Instance, instance_to_json, parse_json
from .offline import opt_cost, opt_trace
from .workfunction import final_work_vector, run_wfa, wfa_cost

EXIT_OK = 0
EXIT_CHECK_FAILURE = 1
EXIT_INCONCLUSIVE = 2
EXIT_INPUT_ERROR = 3
EXIT_IO_ERROR = 4
EXIT_CODES = {"pass": EXIT_OK, "fail": EXIT_CHECK_FAILURE, "inconclusive": EXIT_INCONCLUSIVE}

_CHECK_TABLE = "verification checks:\n" + "\n".join(
    f"  {cid:<4} {text}" for cid, text in CHECK_DESCRIPTIONS.items()
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kserver",
        description="k-server testbed: work function algorithm, exact offline "
        "optimum, and mechanical verification of anchored-sequence properties.",
        epilog=_CHECK_TABLE,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a deterministic instance file")
    gen.add_argument("--n", type=int, required=True, help="point count (2..16)")
    gen.add_argument("--k", type=int, required=True, help="server count")
    gen.add_argument("--rho-len", type=int, required=True, help="request count")
    gen.add_argument("--seed", type=int, required=True, help="seed in [0, 2^64)")
    gen.add_argument(
        "--request-model", choices=REQUEST_MODELS, default="uniform",
        help="request distribution (default: uniform)",
    )
    gen.add_argument("--out", required=True, help="output instance JSON path")

    run = sub.add_parser("run", help="run one algorithm on an instance, print its cost")
    run.add_argument("instance", help="instance JSON path")
    run.add_argument("--algo", choices=("wfa", "opt"), default="wfa")
    run.add_argument("--trace-out", help="optional execution trace JSON path")

    verify = sub.add_parser(
        "verify",
        help="run the nine anchored-property checks on an instance",
        epilog=_CHECK_TABLE,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    verify.add_argument("instance", help="instance JSON path")
    verify.add_argument("--alpha", default="2k-1", help="assumed ratio, integer or '2k-1'")
    verify.add_argument("--beta", type=int, default=0, help="initial additive allowance")
    verify.add_argument("--q", type=int, default=3, help="block repetitions")
    verify.add_argument("--report-out", help="optional property report JSON path")

    campaign = sub.add_parser(
        "campaign",
        help="verify and measure every instance a campaign config describes",
        epilog=_CHECK_TABLE,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    campaign.add_argument("config", help="campaign config JSON path")
    campaign.add_argument("--out", required=True, help="output CSV path")
    return parser


def _read_json(path: str):
    """The JSON document in the file at ``path``; a file that is not UTF-8
    or does not parse raises ``InputError`` naming the path."""
    with open(path, "rb") as handle:
        data = handle.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise InputError(f"{path} is not UTF-8 text: {exc}") from exc
    return parse_json(text, path)


def _load_instance(path: str):
    return Instance.from_dict(_read_json(path))


def _cmd_gen(args) -> int:
    inst = generate_instance(args.n, args.k, args.rho_len, args.seed, args.request_model)
    with open(args.out, "w", encoding="utf-8") as handle:
        handle.write(instance_to_json(inst))
    return EXIT_OK


def _cmd_run(args) -> int:
    inst = _load_instance(args.instance)
    if not args.trace_out:  # a cost, and no round built
        print(wfa_cost(inst)[0] if args.algo == "wfa" else opt_cost(final_work_vector(inst)))
        return EXIT_OK
    # opt's trace ends in the argmin configuration: it costs the optimum
    trace = run_wfa(inst) if args.algo == "wfa" else opt_trace(inst)
    print(trace.total_cost)
    with open(args.trace_out, "w", encoding="utf-8") as handle:
        json.dump(trace.to_json(), handle, indent=2, sort_keys=True)
        handle.write("\n")
    return EXIT_OK


def _cmd_verify(args) -> int:
    inst = _load_instance(args.instance)
    alpha = resolve_alpha(args.alpha, inst.k)
    report = verify_anchored_properties(inst, alpha, args.beta, args.q)
    ratio = RatioRow.of(inst, report.values["opt"], report.values["alg"])
    for check in report.checks:
        print(f"{check.check_id}: {check.status}")
    print(f"ratio: {'pass' if ratio.passed else 'fail'} "
          f"(alg={ratio.alg}, opt={ratio.opt}, bound={ratio.bound})")
    if args.report_out:
        with open(args.report_out, "w", encoding="utf-8") as handle:
            json.dump(report.to_json(), handle, indent=2, sort_keys=True)
            handle.write("\n")
    return EXIT_CODES[report.status if ratio.passed else "fail"]


def _cmd_campaign(args) -> int:
    config = _read_json(args.config)
    report = run_campaign(config)
    with open(args.out, "w", encoding="utf-8") as handle:
        handle.write(report_to_csv(report))
    print(f"{len(report.rows)} instances, status {report.status}")
    return EXIT_CODES[report.status]


_HANDLERS = {
    "gen": _cmd_gen,
    "run": _cmd_run,
    "verify": _cmd_verify,
    "campaign": _cmd_campaign,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _HANDLERS[args.command](args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO_ERROR


if __name__ == "__main__":
    sys.exit(main())
