import os
import re
from types import SimpleNamespace

import pytest

from encorsim.datasets import (
    MAX_SYNTHETIC_ROWS, IngestError, generate_synthetic, load_counties,
    load_sites, write_csv_atomic, write_dataset,
)


def test_synthetic_deterministic_per_seed():
    a = generate_synthetic(seed=1)
    b = generate_synthetic(seed=1)
    c = generate_synthetic(seed=2)
    assert a == b
    assert a != c


def test_synthetic_shapes_and_bounds():
    counties, pops, cdns = generate_synthetic(seed=0, n_counties=25,
                                              n_pops=6, n_cdns=3)
    assert len(counties) == 25 and len(pops) == 6 and len(cdns) == 3
    assert len({c.fips for c in counties}) == 25
    for c in counties:
        assert 25.0 <= c.lat <= 49.0
        assert -124.0 <= c.lon <= -67.0
        assert c.population >= 1000


@pytest.mark.parametrize("name", ["n_counties", "n_pops", "n_cdns"])
def test_synthetic_sizes_above_the_bound_are_rejected(name):
    with pytest.raises(ValueError, match=name):
        generate_synthetic(seed=0, **{name: MAX_SYNTHETIC_ROWS + 1})


def test_write_then_load_round_trip(tmp_path):
    counties, pops, cdns = generate_synthetic(seed=3, n_counties=10)
    paths = write_dataset(str(tmp_path), counties, pops, cdns)
    loaded = load_counties(paths["counties"])
    assert [c.fips for c in loaded] == [c.fips for c in counties]
    assert [c.population for c in loaded] == [c.population for c in counties]
    for got, want in zip(loaded, counties):
        assert got.lat == pytest.approx(want.lat, abs=1e-6)
    loaded_pops = load_sites(paths["pops"])
    assert [p.id for p in loaded_pops] == [p.id for p in pops]


def test_counties_file_carries_total_population_comment(tmp_path):
    counties, pops, cdns = generate_synthetic(seed=3, n_counties=5)
    paths = write_dataset(str(tmp_path), counties, pops, cdns)
    first = open(paths["counties"]).readline()
    assert first == f"# total_population={sum(c.population for c in counties)}\n"
    # and the loader skips it
    assert len(load_counties(paths["counties"])) == 5


def test_write_dataset_failure_keeps_old_files(tmp_path):
    counties, pops, cdns = generate_synthetic(seed=1, n_counties=5)
    write_dataset(str(tmp_path), counties, pops, cdns)
    before = (tmp_path / "counties.csv").read_bytes()
    # a row that fails to format after two rows were written
    unformattable = SimpleNamespace(fips="x", name="x", lat=None, lon=0.0,
                                    population=1000)
    bad = counties[:2] + [unformattable]
    with pytest.raises(TypeError):
        write_dataset(str(tmp_path), bad, pops, cdns)
    assert (tmp_path / "counties.csv").read_bytes() == before
    assert sorted(os.listdir(tmp_path)) == ["cdns.csv", "counties.csv",
                                            "pops.csv"]


def test_write_csv_atomic_writes_preamble_raw(tmp_path):
    path = str(tmp_path / "x.csv")
    write_csv_atomic(path, ("a", "b"), [(1, 2)], preamble="# note\n")
    with open(path, "rb") as f:
        assert f.read() == b"# note\na,b\r\n1,2\r\n"


def test_missing_file_is_ingest_error(tmp_path):
    with pytest.raises(IngestError, match="missing"):
        load_counties(str(tmp_path / "nope.csv"))


def test_non_utf8_file_is_ingest_error(tmp_path):
    path = tmp_path / "sites.csv"
    path.write_bytes(b"id,lat,lon\ncaf\xe9,40.0,-100.0\n")
    with pytest.raises(IngestError, match="utf-8"):
        load_sites(str(path))


def test_directory_path_is_ingest_error(tmp_path):
    with pytest.raises(IngestError, match=re.escape(str(tmp_path))):
        load_counties(str(tmp_path))


def test_wrong_header_rejected(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(IngestError, match="expected header"):
        load_counties(str(path))


def test_malformed_row_reports_line_number(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("fips,name,lat,lon,population\n"
                    "00001,ok,40.0,-100.0,500\n"
                    "00002,broken,40.0,not-a-lon,500\n")
    with pytest.raises(IngestError, match="line 3"):
        load_counties(str(path))


def test_out_of_range_coordinate_reports_line_number(tmp_path):
    path = tmp_path / "sites.csv"
    path.write_text("id,lat,lon\npop1,95.0,-100.0\n")
    with pytest.raises(IngestError, match="line 2"):
        load_sites(str(path))


def test_duplicate_site_id_names_path_line_and_id(tmp_path):
    path = tmp_path / "sites.csv"
    path.write_text("id,lat,lon\npop000,40.0,-100.0\npop001,41.0,-101.0\n"
                    "pop000,42.0,-102.0\n")
    with pytest.raises(IngestError,
                       match=re.escape(f"{path}: line 4: duplicate site id pop000")):
        load_sites(str(path))


def test_bad_row_after_comment_reports_physical_line(tmp_path):
    counties, pops, cdns = generate_synthetic(seed=3, n_counties=5)
    path = write_dataset(str(tmp_path), counties, pops, cdns)["counties"]
    lines = open(path).read().splitlines()
    assert lines[0].startswith("#")  # the total_population comment
    fields = lines[2].split(",")
    lines[2] = ",".join(fields[:-1] + ["abc"])
    open(path, "w").write("\n".join(lines) + "\n")
    with pytest.raises(IngestError, match=re.escape(f"{path}: line 3: ")):
        load_counties(path)


def test_duplicate_site_id_after_comment_reports_physical_line(tmp_path):
    path = tmp_path / "sites.csv"
    # a quote in a comment must not open a field that swallows the rows
    path.write_text("id,lat,lon\npop000,40.0,-100.0\n# a comment,\"x\n"
                    "pop000,42.0,-102.0\n")
    with pytest.raises(IngestError,
                       match=re.escape(f"{path}: line 4: duplicate site id")):
        load_sites(str(path))


def test_header_only_file_rejected(tmp_path):
    path = tmp_path / "sites.csv"
    path.write_text("id,lat,lon\n")
    with pytest.raises(IngestError, match="no data rows"):
        load_sites(str(path))
