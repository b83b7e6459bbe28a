"""
Golden outputs: the CLI's table and load CSVs at seeds 0-2, and the
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
CSV_CASES = [(name, argv, seed)
             for seed in SEEDS
             for name, argv in (
                 (f"table_core-assisted_seed{seed}.csv",
                  ["table", "--mode", "core-assisted"]),
                 (f"table_direct_seed{seed}.csv", ["table", "--mode", "direct"]),
                 (f"load_seed{seed}.csv", ["load"]))]


def run_cli_csv(argv, seed, workdir):
    """Run one command with --out and return the bytes of the CSV it wrote."""
    config = os.path.join(workdir, "load.ini")
    with open(config, "w") as f:
        f.write(LOAD_CONFIG)
    out_dir = os.path.join(workdir, "out")
    code = cli.main(["--config", config, "--seed", str(seed), "--format",
                     "csv", "--out", out_dir] + argv)
    assert code == cli.EXIT_OK
    name = "load.csv" if argv[0] == "load" else "table.csv"
    with open(os.path.join(out_dir, name), "rb") as f:
        return f.read()


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


@pytest.mark.parametrize("name,argv,seed", CSV_CASES,
                         ids=[c[0] for c in CSV_CASES])
def test_cli_csv_matches_golden(name, argv, seed, tmp_path, capsys):
    assert run_cli_csv(argv, seed, str(tmp_path)) == read_golden(name)


def test_message_sequences_match_golden():
    assert sequences_text() == read_golden("sequences.txt").decode()


if __name__ == "__main__":
    import tempfile
    os.makedirs(GOLDEN, exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for name, argv, seed in CSV_CASES:
            with open(os.path.join(GOLDEN, name), "wb") as f:
                f.write(run_cli_csv(argv, seed, tmp))
    with open(os.path.join(GOLDEN, "sequences.txt"), "w") as f:
        f.write(sequences_text())
