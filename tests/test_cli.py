import csv
import os
from dataclasses import replace

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from encorsim import cli, datasets, placement
from encorsim.cli import (
    CONFIG, EXIT_CHECK, EXIT_DATA, EXIT_OK, EXIT_USAGE, load_config, main,
    write_csv_atomic,
)


def read_csv(path):
    with open(path, newline="") as f:
        return list(csv.reader(f))


def test_no_command_is_usage_error(capsys):
    assert main([]) == EXIT_USAGE


def test_unknown_command_is_usage_error(capsys):
    assert main(["frobnicate"]) == EXIT_USAGE


def test_bad_flag_value_is_usage_error(capsys):
    assert main(["--seed", "notanint", "table"]) == EXIT_USAGE


def test_table_passes_its_own_checks(tmp_path, capsys):
    assert main(["--out", str(tmp_path), "table"]) == EXIT_OK
    rows = read_csv(tmp_path / "table.csv")
    assert rows[0][0] == "arch"
    by_arch = {r[0]: r for r in rows[1:]}
    assert by_arch["LTE"][3:5] == ["15", "15"]
    assert by_arch["EnCoR"][3:5] == ["7", "2"]


def test_table_direct_mode(tmp_path, capsys):
    assert main(["--out", str(tmp_path), "table", "--mode", "direct"]) == EXIT_OK
    by_arch = {r[0]: r for r in read_csv(tmp_path / "table.csv")[1:]}
    assert by_arch["EnCoR"][3:5] == ["6", "0"]


@pytest.mark.parametrize("patch, names", [
    (lambda mp: mp.setitem(cli.PAPER_MESSAGE_COUNTS, "LTE", (14, 14)),
     ("LTE", "(15, 15)", "(14, 14)")),
    (lambda mp: mp.setattr(cli, "PAPER_MODQUIC_TOTAL", (1, 2)),
     ("modQUIC", "1-2")),
])
def test_table_check_failure_is_one_error_line(monkeypatch, capsys, patch,
                                               names):
    patch(monkeypatch)
    assert main(["table"]) == EXIT_CHECK
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and "error:" in err[0]
    assert all(name in err[0] for name in names)


def test_pretty_format_prints_table(capsys):
    assert main(["--format", "pretty", "table"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "arch" in out and "EnCoR" in out


def test_load_writes_csv(tmp_path, capsys):
    config = tmp_path / "fast.ini"
    config.write_text("[load]\nrates_per_s = 4,16\nduration_s = 3\n")
    assert main(["--config", str(config), "--out", str(tmp_path),
                 "load"]) == EXIT_OK
    rows = read_csv(tmp_path / "load.csv")
    assert rows[0][0] == "arch"
    assert len(rows) == 1 + 4  # 2 archs x 2 rates
    assert {r[0] for r in rows[1:]} == {"encor", "lte"}


@pytest.mark.parametrize("line,key", [
    ("rates_per_s = a,b", "rates_per_s"),
    ("rates_per_s = 0,2", "rates_per_s"),
    ("rates_per_s = 1e300", "rates_per_s"),
    ("core_service_rate = 0", "core_service_rate"),
    ("duration_s = 0", "duration_s"),
    ("duration_s = 1e9", "duration_s"),
    ("link_latency_us = -1", "link_latency_us"),
])
def test_load_bad_value_is_usage_error_naming_the_key(tmp_path, capsys, line,
                                                      key):
    config = tmp_path / "bad.ini"
    config.write_text(f"[load]\n{line}\n")
    assert main(["--config", str(config), "load"]) == EXIT_USAGE
    assert_one_error_line_naming(capsys, "[load]", key)


def assert_one_error_line_naming(capsys, section, key):
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:")
    assert section in err[0] and key in err[0]


@pytest.mark.parametrize("argv,line,key", [
    (["mec"], "ue_count = 0", "ue_count"),
    (["mec"], "ue_count = -5", "ue_count"),
    (["mec"], "duration_min = 0", "duration_min"),
    (["mec"], "handover_rate_per_min = nan", "handover_rate_per_min"),
    (["mec"], "c_intra = 0", "c_intra"),
    (["mec", "--grid", "0x0"], "ue_count = 10", "grid"),
    (["mec", "--grid", "1x1"], "ue_count = 10", "grid"),
    (["mec", "--grid", "4x4"], "ue_count = 1\nduration_min = 0.0001",
     "duration_min"),
    (["apps"], "file_mb = x", "file_mb"),
    (["apps"], "video_s = 0", "video_s"),
    (["apps"], "handover_at_s = -1", "handover_at_s"),
    (["apps"], "forwarding = maybe", "forwarding"),
    (["place", "--synthetic"], "budget_km = abc", "budget_km"),
    (["place", "--synthetic"], "budget_km = -5", "budget_km"),
    (["place", "--synthetic"], "core_budget = 0", "core_budget"),
    (["place", "--synthetic"], "n_pops = 0", "n_pops"),
    (["gen"], "n_counties = -1", "n_counties"),
    # sizes past a stated bound, each of which would hang or run out of
    # memory if it ran
    (["apps"], "file_mb = 1e12", "file_mb"),
    (["apps"], "video_s = 1e9", "video_s"),
    (["apps"], "live_s = 1e9", "live_s"),
    (["mec", "--grid", "100000x100000"], "ue_count = 10", "grid"),
    (["mec"], "ue_count = 1000000000", "ue_count"),
    (["mec"], "duration_min = 1e12", "duration_min"),
    (["gen"], "n_counties = 1000000000", "n_counties"),
    (["place", "--synthetic"], "n_counties = 1000000000", "n_counties"),
    # infinite once counted in microseconds
    (["apps"], "handover_at_s = 1e303", "handover_at_s"),
    # below one byte, the bulk run would have no file to send
    (["apps"], "file_mb = 1e-9", "file_mb"),
])
def test_bad_config_value_is_usage_error_naming_the_key(tmp_path, capsys,
                                                        argv, line, key):
    section = f"[{argv[0]}]"
    config = tmp_path / "bad.ini"
    config.write_text(f"{section}\n{line}\n")
    out = tmp_path / "out"
    assert main(["--config", str(config), "--out", str(out)]
                + argv) == EXIT_USAGE
    assert_one_error_line_naming(capsys, section, key)
    assert not out.exists() or not os.listdir(out)


def test_mec_grid_flag_and_csv(tmp_path, capsys):
    config = tmp_path / "small.ini"
    config.write_text("[mec]\nue_count = 200\n")
    assert main(["--config", str(config), "--out", str(tmp_path),
                 "mec", "--grid", "8x8"]) == EXIT_OK
    rows = read_csv(tmp_path / "mec.csv")
    assert rows[1][0] == "1" and rows[1][5] == "1.0"
    assert rows[-1][0] == "64"


def test_mec_bad_grid_is_usage_error(capsys):
    assert main(["mec", "--grid", "8by8"]) == EXIT_USAGE


def test_place_synthetic_emits_three_files(tmp_path, capsys):
    config = tmp_path / "place.ini"
    config.write_text("[place]\nn_counties = 15\nn_pops = 5\ncore_budget = 3\n")
    assert main(["--config", str(config), "--out", str(tmp_path),
                 "place", "--synthetic"]) == EXIT_OK
    for name in ("placement.csv", "coverage.csv", "cost.csv"):
        assert (tmp_path / name).exists()
    cost = read_csv(tmp_path / "cost.csv")
    assert cost[1][0] == "8250000.0"  # 3 cores x $2.75M
    assert cost[1][1] == "1000000.0"  # 5 routers x $200k
    coverage = read_csv(tmp_path / "coverage.csv")
    assert coverage[-1][2] == "encor"


@pytest.mark.parametrize("population", [None, 0],
                         ids=["generated", "all_zero"])
def test_place_coverage_curve_is_coverage_of_each_greedy_prefix(
        tmp_path, capsys, population):
    # greedy stops after 3 of the 6 PoPs, when no site adds coverage, well
    # before the core budget; with no population it places nothing
    counties, pops, cdns = datasets.generate_synthetic(
        2, n_counties=30, n_pops=6, n_cdns=3)
    if population is not None:
        counties = [replace(c, population=population) for c in counties]
    paths = datasets.write_dataset(str(tmp_path / "data"), counties, pops,
                                   cdns)
    budget_km, core_budget = 1200.0, 9
    config = tmp_path / "place.ini"
    config.write_text(f"[place]\ncounties = {paths['counties']}\n"
                      f"pops = {paths['pops']}\ncdns = {paths['cdns']}\n"
                      f"budget_km = {budget_km}\ncore_budget = {core_budget}\n")
    assert main(["--config", str(config), "--out", str(tmp_path),
                 "place"]) == EXIT_OK
    # the files hold rounded coordinates: compare on what the CLI read
    counties = datasets.load_counties(paths["counties"])
    pops, cdns = (datasets.load_sites(paths[key]) for key in ("pops", "cdns"))
    chosen = placement.greedy_place(counties, pops, cdns, core_budget,
                                    budget_km).core_sites
    assert len(chosen) == (0 if population == 0 else 3)
    expected = [[str(budget_km), str(n), "3gpp", str(round(
        placement.coverage(counties, budget_km,
                           placement.Deployment(core_sites=chosen[:n]),
                           pops, cdns), 6))]
                for n in range(1, core_budget + 1)]
    assert read_csv(tmp_path / "coverage.csv")[1:-1] == expected


def test_place_missing_dataset_is_data_error(tmp_path, capsys):
    config = tmp_path / "place.ini"
    config.write_text(f"[place]\ncounties = {tmp_path}/nope.csv\n"
                      f"pops = {tmp_path}/nope.csv\ncdns = {tmp_path}/nope.csv\n")
    assert main(["--config", str(config), "place"]) == EXIT_DATA


def test_place_header_only_dataset_is_data_error(tmp_path, capsys):
    gen_dir = tmp_path / "data"
    assert main(["--out", str(gen_dir), "gen"]) == EXIT_OK
    (gen_dir / "pops.csv").write_text("id,lat,lon\n")
    config = tmp_path / "place.ini"
    config.write_text(f"[place]\ncounties = {gen_dir}/counties.csv\n"
                      f"pops = {gen_dir}/pops.csv\n"
                      f"cdns = {gen_dir}/cdns.csv\n")
    assert main(["--config", str(config), "place"]) == EXIT_DATA


def test_gen_then_place_on_generated_data(tmp_path, capsys):
    gen_dir = tmp_path / "data"
    assert main(["--out", str(gen_dir), "gen"]) == EXIT_OK
    config = tmp_path / "real.ini"
    config.write_text(f"[place]\ncounties = {gen_dir}/counties.csv\n"
                      f"pops = {gen_dir}/pops.csv\ncdns = {gen_dir}/cdns.csv\n"
                      "core_budget = 2\n")
    assert main(["--config", str(config), "--out", str(tmp_path),
                 "place"]) == EXIT_OK


def test_place_duplicate_site_id_is_data_error(tmp_path, capsys):
    gen_dir = tmp_path / "data"
    assert main(["--out", str(gen_dir), "gen"]) == EXIT_OK
    pops = gen_dir / "pops.csv"
    pops.write_text(pops.read_text().replace("pop001", "pop000"))
    config = tmp_path / "dup.ini"
    config.write_text(f"[place]\ncounties = {gen_dir}/counties.csv\n"
                      f"pops = {pops}\ncdns = {gen_dir}/cdns.csv\n")
    assert main(["--config", str(config), "place"]) == EXIT_DATA
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and "duplicate site id pop000" in err[0]


def test_apps_emits_four_rows(tmp_path, capsys):
    config = tmp_path / "apps.ini"
    config.write_text("[apps]\nfile_mb = 2\nvideo_s = 12\nlive_s = 6\n"
                      "handover_at_s = 1\n")
    assert main(["--config", str(config), "--out", str(tmp_path),
                 "apps"]) == EXIT_OK
    rows = read_csv(tmp_path / "apps.csv")
    assert [r[0] for r in rows[1:]] == ["bulk", "buffered", "live", "live"]
    assert [r[1] for r in rows[3:]] == ["PassiveOnly", "PingOnIdle"]


def test_runs_deterministic_across_invocations(tmp_path, capsys):
    a_dir, b_dir = tmp_path / "a", tmp_path / "b"
    config = tmp_path / "fast.ini"
    config.write_text("[load]\nrates_per_s = 8\nduration_s = 2\n")
    for out in (a_dir, b_dir):
        assert main(["--config", str(config), "--seed", "5",
                     "--out", str(out), "load"]) == EXIT_OK
    assert read_csv(a_dir / "load.csv") == read_csv(b_dir / "load.csv")


def test_config_unknown_key_rejected(tmp_path, capsys):
    config = tmp_path / "bad.ini"
    config.write_text("[load]\nwarp_speed = 9\n")
    assert main(["--config", str(config), "load"]) == EXIT_USAGE
    assert "unknown config key" in capsys.readouterr().err


def test_config_unknown_section_rejected(tmp_path, capsys):
    config = tmp_path / "bad.ini"
    config.write_text("[warp]\nspeed = 9\n")
    assert main(["--config", str(config), "load"]) == EXIT_USAGE


def test_config_missing_file_rejected(tmp_path, capsys):
    assert main(["--config", str(tmp_path / "nope.ini"), "load"]) == EXIT_USAGE


@pytest.mark.parametrize("content,code,names", [
    (b"grid = 4x4\n", EXIT_USAGE, "no section headers"),
    (b"[mec]\ngrid = 4x4\ngrid = 5x5\n", EXIT_USAGE, "already exists"),
    (b"[mec]\ngrid = 4x4\n[mec]\nue_count = 9\n", EXIT_USAGE,
     "already exists"),
    (b"[mec]\ngrid = 4x4 \xff\xfe\n", EXIT_USAGE, "utf-8"),
    # read raw, "%" reaches the loader as part of the path
    (b"[place]\ncounties = nope/100%.csv\n", EXIT_DATA, "nope/100%.csv"),
    (None, EXIT_USAGE, "no config file"),  # --config names a directory
], ids=["no-section", "repeated-key", "repeated-section", "not-utf8",
        "percent", "directory"])
def test_malformed_config_file_gives_one_error_line(tmp_path, monkeypatch,
                                                    capsys, content, code,
                                                    names):
    monkeypatch.chdir(tmp_path)
    config = tmp_path / "bad.ini"
    if content is None:
        config.mkdir()
    else:
        config.write_bytes(content)
    assert main(["--config", str(config), "--out", str(tmp_path / "out"),
                 "place"]) == code
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and "error:" in err[0] and names in err[0]


def test_load_config_defaults_without_file():
    config = load_config(None)
    assert config["mec"]["grid"] == "20x20"
    assert config["load"]["core_service_rate"] == "500"


def test_write_csv_atomic_leaves_no_tmp(tmp_path):
    path = str(tmp_path / "x.csv")
    write_csv_atomic(path, ("a", "b"), [(1, 2)])
    assert read_csv(path) == [["a", "b"], ["1", "2"]]
    assert os.listdir(tmp_path) == ["x.csv"]


def test_write_csv_atomic_failure_keeps_old_file(tmp_path):
    path = str(tmp_path / "x.csv")
    write_csv_atomic(path, ("a", "b"), [(1, 2)])

    def rows():
        yield (3, 4)
        raise RuntimeError("disk on fire")

    with pytest.raises(RuntimeError):
        write_csv_atomic(path, ("a", "b"), rows())
    assert read_csv(path) == [["a", "b"], ["1", "2"]]
    assert os.listdir(tmp_path) == ["x.csv"]


def test_place_checks_dataset_sizes_with_real_paths(tmp_path, capsys):
    # every key of the section is parsed, even one the command ignores
    gen_dir = tmp_path / "data"
    assert main(["--out", str(gen_dir), "gen"]) == EXIT_OK
    capsys.readouterr()
    config = tmp_path / "real.ini"
    config.write_text(f"[place]\ncounties = {gen_dir}/counties.csv\n"
                      f"pops = {gen_dir}/pops.csv\ncdns = {gen_dir}/cdns.csv\n"
                      "n_pops = 0\n")
    assert main(["--config", str(config), "place"]) == EXIT_USAGE
    assert_one_error_line_naming(capsys, "[place]", "n_pops")


# small values keep every run short; "2x2" is the one good grid
FUZZ_TOKENS = ["", "x", "0", "-1", "nan", "inf", "0.5", "1e-9", "2", "1,2",
               "2x2", "yes"]


def _parses(parse, token):
    try:
        parse(token)
    except (ValueError, KeyError):
        return False
    return True


@pytest.mark.parametrize("section", sorted(CONFIG))
@settings(max_examples=60, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_fuzz_config_section(tmp_path, monkeypatch, capsys, section, data):
    """Any values for a command's section give a documented exit code and,
    on failure, exactly one error line. At most one key may take any token;
    the rest take tokens their own parser accepts, so that many runs get
    past parsing into the models and the command."""
    wild = data.draw(st.sampled_from([None, *CONFIG[section]]))
    values = {key: data.draw(st.sampled_from(
        [t for t in FUZZ_TOKENS if key == wild or _parses(parse, t)]),
        label=key) for key, (_, parse) in CONFIG[section].items()}
    monkeypatch.chdir(tmp_path)  # dataset paths such as "x" resolve here
    config = tmp_path / "fuzz.ini"
    config.write_text(f"[{section}]\n" + "".join(
        f"{key} = {value}\n" for key, value in values.items()))
    code = main(["--config", str(config), "--out", str(tmp_path / "out"),
                 section])
    err = capsys.readouterr().err.splitlines()
    assert code in (0, 1, 2, 3)
    if code:
        assert len(err) == 1 and "error:" in err[0]
