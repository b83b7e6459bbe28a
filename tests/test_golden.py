"""
Golden outputs: the CSVs of every CLI command at seeds 0-2, and the
per-message rows of attach and of every handover mode, compared byte for
byte with the files under tests/golden/.

A refactor that keeps these passing keeps the observable behaviour. To
record new goldens after an intended behaviour change, run
``PYTHONPATH=src python3 tests/test_golden.py`` and review the diff.
"""
import os

import pytest

from encorsim import cli, control, lte, security

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")
SEEDS = (0, 1, 2)
LOAD_CONFIG = "[load]\nrates_per_s = 4,16\nduration_s = 3\n"
# The handover lands mid-train: bulk retransmits and PassiveOnly deadlocks.
APPS_CONFIG = ("[apps]\nfile_mb = 4\nvideo_s = 20\nlive_s = 10\n"
               "handover_at_s = 0.4\nforwarding = {}\n")
MEC_CONFIG = "[mec]\ngrid = 4x4\nue_count = 200\n"
PLACE_CONFIG = "[place]\nbudget_km = 1500\ncore_budget = 4\n"
# (golden prefix, config, argv, the files the command writes)
COMMANDS = [
    ("table_core-assisted", "", ["table", "--mode", "core-assisted"],
     ["table.csv"]),
    ("table_direct", "", ["table", "--mode", "direct"], ["table.csv"]),
    ("load", LOAD_CONFIG, ["load"], ["load.csv"]),
    ("apps_nofwd", APPS_CONFIG.format("false"), ["apps"], ["apps.csv"]),
    ("apps_fwd", APPS_CONFIG.format("true"), ["apps"], ["apps.csv"]),
    ("mec", MEC_CONFIG, ["mec"], ["mec.csv"]),
    ("place", PLACE_CONFIG, ["place", "--synthetic"],
     ["placement.csv", "coverage.csv", "cost.csv"]),
    ("gen", "", ["gen"], ["counties.csv", "pops.csv", "cdns.csv"]),
]


def _case(prefix, config, argv, files, seed):
    """One run of a command; a command that writes one file is named
    after its golden, one that writes several after its prefix."""
    if len(files) == 1:
        goldens = {files[0]: f"{prefix}_seed{seed}.csv"}
        case_id = goldens[files[0]]
    else:
        goldens = {f: f"{prefix}_{f[:-len('.csv')]}_seed{seed}.csv"
                   for f in files}
        case_id = f"{prefix}_seed{seed}"
    return pytest.param(config, argv, seed, goldens, id=case_id)


CLI_CASES = [_case(*command, seed) for seed in SEEDS for command in COMMANDS]


def run_cli(config_text, argv, seed, workdir):
    """Run one command with --out in a fresh directory; return the bytes
    of every file it wrote, by name."""
    config = os.path.join(workdir, "case.ini")
    with open(config, "w") as f:
        f.write(config_text)
    out_dir = os.path.join(workdir, "out")
    code = cli.main(["--config", config, "--seed", str(seed), "--format",
                     "csv", "--out", out_dir] + argv)
    assert code == cli.EXIT_OK
    written = {}
    for name in os.listdir(out_dir):
        with open(os.path.join(out_dir, name), "rb") as f:
            written[name] = f.read()
        os.remove(os.path.join(out_dir, name))
    return written


def sequences():
    """Traces of attach, S1 and both edge-routed handovers, accepted and
    refused by a full target."""
    k = bytes(range(16))

    def edge_world(tgt_cap=None):
        sme = control.Sme({1: security.SubscriberRecord(imsi=1, k=k)}, seed=0)
        src = control.Inb("inb_a", 0x2001_0DB8_0000_0001)
        tgt = control.Inb("inb_b", 0x2001_0DB8_0000_0002, ue_cap=tgt_cap)
        hop = control.Hop("hop_ab", ["inb_a", "inb_b"])
        ue = control.Ue(imsi=1, k=k)
        ctx, attach_trace = control.attach(ue, src, sme)
        return ue, ctx, src, tgt, sme, hop, attach_trace

    out = {}
    *_, out["attach"] = edge_world()
    for cap, suffix in ((None, ""), (0, "_refused")):
        ue, ctx, src, tgt, sme, hop, _ = edge_world(cap)
        out["core_assisted" + suffix] = control.handover_core_assisted(
            ctx, ue, src, tgt, sme, hop)
        ue, ctx, src, tgt, sme, hop, _ = edge_world(cap)
        out["direct" + suffix] = control.handover_direct(
            ctx, ue, src, tgt, hop)
    core = lte.LteCore({1: security.SubscriberRecord(imsi=1, k=k)}, seed=0)
    lte_ue = control.Ue(imsi=1, k=k)
    lte.attach_lte(lte_ue, "enb_a", core)
    out["s1"], _ = lte.s1_handover(lte_ue, "enb_a", "enb_b", core)
    return out


def sequences_text():
    """One section per trace, one kind,src,dst,via_core,via_hop line per
    message."""
    lines = []
    for name, trace in sequences().items():
        lines.append(f"# {name} failed={int(trace.failed)}")
        lines += [f"{m.kind.value},{m.src},{m.dst},{int(m.via_core)},"
                  f"{m.payload.get('via_hop', '')}" for m in trace.messages]
    return "\n".join(lines) + "\n"


def read_golden(name):
    with open(os.path.join(GOLDEN, name), "rb") as f:
        return f.read()


@pytest.mark.parametrize("config,argv,seed,goldens", CLI_CASES)
def test_cli_csv_matches_golden(config, argv, seed, goldens, tmp_path,
                                capsys):
    written = run_cli(config, argv, seed, str(tmp_path))
    assert sorted(written) == sorted(goldens)
    for name, golden in goldens.items():
        assert written[name] == read_golden(golden), golden


def test_message_sequences_match_golden():
    assert sequences_text() == read_golden("sequences.txt").decode()


if __name__ == "__main__":
    import tempfile
    os.makedirs(GOLDEN, exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for case in CLI_CASES:
            config, argv, seed, goldens = case.values
            for name, data in run_cli(config, argv, seed, tmp).items():
                with open(os.path.join(GOLDEN, goldens[name]), "wb") as f:
                    f.write(data)
    with open(os.path.join(GOLDEN, "sequences.txt"), "w") as f:
        f.write(sequences_text())
