"""
Command-line entry point.

Commands: table, load, mec, place, apps, gen. Every command is
deterministic given (config, seed); all randomness flows from the one
root seed. Results are written as CSV atomically (temp file + rename).

Exit codes: 0 success, 1 usage error, 2 data error, 3 acceptance-check
failure.
"""
import argparse
import configparser
import math
import os
import sys

from . import datasets, experiments, mecsweep, placement, transport
from .datasets import write_csv_atomic
from .kernel import US_PER_S

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_CHECK = 3

# The paper's per-handover message counts, (total, via core), and the
# modQUIC total range. `table` checks its output against these; they are
# stated here, not derived from the sequence tables they check.
PAPER_MESSAGE_COUNTS = {"LTE": (15, 15), "core-assisted": (7, 2),
                        "direct": (6, 0)}
PAPER_MODQUIC_TOTAL = (8, 10)


class UsageError(Exception):
    pass


class Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def load_config(path):
    """Flat key=value config with section headers; unknown keys rejected.
    Returns the raw strings, defaults filled in from `CONFIG`."""
    config = {section: {key: default for key, (default, _) in keys.items()}
              for section, keys in CONFIG.items()}
    if path is None:
        return config
    if not os.path.isfile(path):
        raise UsageError(f"no config file at {path}")
    # values are taken raw: a "%" in a path is not an interpolation
    parser = configparser.ConfigParser(interpolation=None)
    try:
        with open(path, encoding="utf-8") as f:
            parser.read_file(f)
    except (OSError, UnicodeDecodeError, configparser.Error) as exc:
        detail = " ".join(str(exc).splitlines())
        raise UsageError(f"bad config file {path}: {detail}") from exc
    for section in parser.sections():
        if section not in config:
            raise UsageError(f"unknown config section [{section}]")
        for key, value in parser.items(section):
            if key not in config[section]:
                raise UsageError(f"unknown config key [{section}] {key}")
            config[section][key] = value
    return config


def _checked(parse, ok):
    """A parser that also rejects a value for which `ok` is false."""
    def check(raw):
        value = parse(raw)
        if not ok(value):
            raise ValueError(raw)
        return value
    return check


def _grid(raw):
    width, height = (int(v) for v in raw.lower().split("x"))
    return width, height


def _flag(raw):
    return configparser.ConfigParser.BOOLEAN_STATES[raw.lower()]


_positive = _checked(float, lambda v: 0 < v < math.inf)
# an instant that whole microseconds can still count
_instant_s = _checked(float, lambda v: 0 <= v * US_PER_S < math.inf)
_count = _checked(int, lambda v: v >= 1)
# simulated time is whole microseconds
_duration_s = _checked(float, lambda v: 1 / US_PER_S <= v < math.inf)
# a file is whole bytes, so a smaller one has none
_file_mb = _checked(float, lambda v: 1 / 1_000_000 <= v < math.inf)
_dataset_sizes = {"n_counties": ("40", _count), "n_pops": ("8", _count),
                  "n_cdns": ("4", _count)}

# Every config key: {section: {key: (default, parser)}}. A parser raises
# ValueError or KeyError on a value it rejects; the models check the
# ranges that only they know.
CONFIG = {
    "load": {
        "rates_per_s": ("2,4,8,16,24,30",
                        lambda v: tuple(float(r) for r in v.split(","))),
        "core_service_rate": ("500", float),
        "duration_s": ("20", float),
        "link_latency_us": ("1000", int),
    },
    "mec": {
        "grid": ("20x20", _grid),
        "ue_count": ("8000", int),
        "handover_rate_per_min": ("5", float),
        "duration_min": ("10", _positive),
        "c_intra": ("15", _positive),
        "c_inter": ("50", _positive),
    },
    "place": {
        "budget_km": ("300", _positive),
        "core_budget": ("10", _count),
        "counties": ("", str),
        "pops": ("", str),
        "cdns": ("", str),
        **_dataset_sizes,
    },
    "apps": {
        "file_mb": ("100", _file_mb),
        "video_s": ("60", _duration_s),
        "live_s": ("10", _duration_s),
        "handover_at_s": ("5", _instant_s),
        "forwarding": ("false", _flag),
    },
    "gen": _dataset_sizes,
}


def read_section(config, section):
    """Parse every key of one config section, used or not. A value that
    does not parse is a usage error naming the section and the key."""
    values = {}
    for key, (_, parse) in CONFIG[section].items():
        raw = config[section][key]
        try:
            values[key] = parse(raw)
        except (ValueError, KeyError):  # KeyError: not a flag word
            raise UsageError(f"[{section}] {key}: bad value {raw!r}")
    return values


def _emit(args, header, rows, filename):
    if args.format == "csv" or args.out:
        out_dir = args.out or "."
        os.makedirs(out_dir, exist_ok=True)
        path = write_csv_atomic(os.path.join(out_dir, filename), header, rows)
        print(path)
    if args.format == "pretty":
        widths = [max(len(str(h)), *(len(str(r[i])) for r in rows)) if rows
                  else len(str(h)) for i, h in enumerate(header)]
        print("  ".join(str(h).ljust(w) for h, w in zip(header, widths)))
        for r in rows:
            print("  ".join(str(v).ljust(w) for v, w in zip(r, widths)))


def cmd_table(args, config):
    rows, _ = experiments.run_message_table(mode=args.mode, seed=args.seed)
    header = ("arch", "quic_min", "quic_max", "network_total",
              "network_via_core", "total_min", "total_max")
    _emit(args, header, [r.to_csv_row() for r in rows], "table.csv")

    counts = {r.arch: (r.network_total, r.network_via_core) for r in rows}
    for arch, paper in (("LTE", PAPER_MESSAGE_COUNTS["LTE"]),
                        ("EnCoR", PAPER_MESSAGE_COUNTS[args.mode])):
        if counts[arch] != paper:
            print(f"error: {arch} row (total, via core) is {counts[arch]}, "
                  f"the paper's is {paper}", file=sys.stderr)
            return EXIT_CHECK
    if args.mode == "core-assisted":
        lo, hi = PAPER_MODQUIC_TOTAL
        quic = next(r for r in rows if r.arch == "EnCoR+modQUIC")
        if not (lo <= quic.total_min and quic.total_max <= hi):
            print(f"error: EnCoR+modQUIC total {quic.total_min}-"
                  f"{quic.total_max} is outside the paper's {lo}-{hi}",
                  file=sys.stderr)
            return EXIT_CHECK
    return EXIT_OK


def cmd_load(args, config):
    params = read_section(config, "load")
    try:  # the model's message names the key it rejects
        scenario = experiments.LoadScenario(**params, seed=args.seed)
    except ValueError as exc:
        raise UsageError(f"[load] {exc}")
    results = experiments.run_load_sweep(scenario)
    header = ("arch", "rate_per_s", "mean_ms", "p95_ms",
              "core_msgs_per_ho", "core_utilization", "saturated",
              "completions")
    rows = [p.to_csv_row() for arch in ("encor", "lte") for p in results[arch]]
    _emit(args, header, rows, "load.csv")
    return EXIT_OK


def cmd_mec(args, config):
    if args.grid:
        config["mec"]["grid"] = args.grid
    values = read_section(config, "mec")
    w, h = values["grid"]
    try:  # a bad grid, an empty trace, or one too long to walk
        grid = mecsweep.GridNetwork(
            width=w, height=h, ue_count=values["ue_count"],
            handover_rate_per_min=values["handover_rate_per_min"])
        points, ratios = mecsweep.sweep(
            grid, duration_min=values["duration_min"], seed=args.seed,
            c_intra=values["c_intra"], c_inter=values["c_inter"])
    except ValueError as exc:
        raise UsageError(f"[mec] {exc}")
    header = ("k", "anchors_per_station", "handovers", "inter",
              "messages", "ratio_vs_k1")
    _emit(args, header, mecsweep.to_csv_rows(points, ratios), "mec.csv")
    return EXIT_OK


def _synthetic(section, seed, values):
    """A synthetic dataset of the sizes in `values`; a size above the
    generator's bound is a usage error naming the key."""
    try:
        return datasets.generate_synthetic(
            seed, **{key: values[key] for key in _dataset_sizes})
    except ValueError as exc:
        raise UsageError(f"[{section}] {exc}")


def cmd_place(args, config):
    values = read_section(config, "place")
    budget_km, core_budget = values["budget_km"], values["core_budget"]
    if args.synthetic or not values["counties"]:
        counties, pops, cdns = _synthetic("place", args.seed, values)
    else:
        counties = datasets.load_counties(values["counties"])
        pops = datasets.load_sites(values["pops"])
        cdns = datasets.load_sites(values["cdns"])

    deployment = placement.greedy_place(counties, pops, cdns,
                                        core_budget, budget_km)
    place_rows = [(rank + 1, site.id, marginal)
                  for rank, (site, marginal) in enumerate(
                      zip(deployment.core_sites,
                          deployment.marginal_populations))]
    _emit(args, ("rank", "pop_id", "marginal_population"), place_rows,
          "placement.csv")

    # greedy is prefix-stable: its first n picks are the n-core placement,
    # and their marginals add up to exactly the population they cover
    total = sum(county.population for county in counties)
    marginals = deployment.marginal_populations
    curve_rows = [(budget_km, n, "3gpp",
                   round(sum(marginals[:n]) / total, 6) if total else 0.0)
                  for n in range(1, core_budget + 1)]
    encor_cov = placement.coverage(counties, budget_km, pops=pops, cdns=cdns)
    curve_rows.append((budget_km, len(pops), "encor", round(encor_cov, 6)))
    _emit(args, ("budget_km", "core_budget", "mode", "coverage_fraction"),
          curve_rows, "coverage.csv")

    model = placement.CostModel()
    cost_3gpp, cost_encor, savings = placement.cost_compare(
        model, core_budget, len(pops))
    _emit(args, ("cost_3gpp", "cost_encor", "savings_fraction"),
          [(cost_3gpp, cost_encor, round(savings, 6))], "cost.csv")
    return EXIT_OK


def cmd_apps(args, config):
    values = read_section(config, "apps")
    params = transport.TransportParams(forwarding_enabled=values["forwarding"])
    file_bytes = values["file_mb"] * 1_000_000
    # every run's size is checked before the first run starts
    sizes = (("file_mb", transport.bulk_packets(file_bytes, params)),
             ("video_s", transport.buffered_packets(values["video_s"],
                                                    params)),
             ("live_s", transport.live_frames(values["live_s"])))
    for key, packets in sizes:
        try:
            transport.check_packets(key, values[key], packets)
        except ValueError as exc:
            raise UsageError(f"[apps] {exc}")
    ho_us = round(values["handover_at_s"] * US_PER_S)
    live_ho_us = round(values["live_s"] * US_PER_S / 3)
    runs = [transport.run_bulk(round(file_bytes), [ho_us], params,
                               seed=args.seed),
            transport.run_buffered(values["video_s"], [ho_us], params,
                                   seed=args.seed)]
    runs += [transport.run_live(values["live_s"], [live_ho_us], policy,
                                params, seed=args.seed)
             for policy in transport.Policy]
    rows = [m.to_csv_row() for m in runs]
    header = ("app", "policy", "handovers", "throughput_mbps", "retx_rate",
              "stall_s", "buffer_s", "quality", "fps", "deadlocked")
    _emit(args, header, rows, "apps.csv")
    return EXIT_OK


def cmd_gen(args, config):
    counties, pops, cdns = _synthetic("gen", args.seed,
                                      read_section(config, "gen"))
    out_dir = args.out or "."
    paths = datasets.write_dataset(out_dir, counties, pops, cdns)
    for path in paths.values():
        print(path)
    return EXIT_OK


def build_parser():
    parser = Parser(prog="encorsim",
                    description="edge-routed cellular core simulator")
    parser.add_argument("--config", default=None)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", default=None)
    parser.add_argument("--format", choices=("csv", "pretty"),
                        default="pretty")
    sub = parser.add_subparsers(dest="command", required=True)

    p_table = sub.add_parser("table", help="per-handover message counts")
    p_table.add_argument("--mode", choices=("core-assisted", "direct"),
                         default="core-assisted")
    p_table.set_defaults(func=cmd_table)

    sub.add_parser("load", help="handover latency under load") \
        .set_defaults(func=cmd_load)

    p_mec = sub.add_parser("mec", help="anchor-density message scaling")
    p_mec.add_argument("--grid", default=None)
    p_mec.set_defaults(func=cmd_mec)

    p_place = sub.add_parser("place", help="core placement and cost")
    p_place.add_argument("--synthetic", action="store_true")
    p_place.set_defaults(func=cmd_place)

    sub.add_parser("apps", help="transport application runs") \
        .set_defaults(func=cmd_apps)
    sub.add_parser("gen", help="generate a synthetic dataset") \
        .set_defaults(func=cmd_gen)
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else EXIT_USAGE
    try:
        config = load_config(args.config)
        return args.func(args, config)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (datasets.IngestError, mecsweep.TilingError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
