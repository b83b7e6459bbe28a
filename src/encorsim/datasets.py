"""
Dataset ingestion and seeded synthetic generation for the placement
analysis. Real county/PoP/CDN data is ingested from CSV; the synthetic
generator builds population-weighted clustered instances inside a
bounding box so tests and demos never need downloads. Every CSV the
package writes goes through `write_csv_atomic`.
"""
import csv
import os
import random

from .placement import County, SitePoint

COUNTY_HEADER = ["fips", "name", "lat", "lon", "population"]
SITE_HEADER = ["id", "lat", "lon"]

# roughly the continental US
DEFAULT_BBOX = (25.0, -124.0, 49.0, -67.0)  # lat_min, lon_min, lat_max, lon_max
# The most rows of each kind `generate_synthetic` makes, three times the
# 3,143 US counties. `place` compares a county with a PoP only inside the
# PoP's latitude window (see `placement`). At worst, a budget over about
# 2,700 km beyond the rest of the chain, the window spans the box's 24
# degrees of latitude and every pair is compared, at about 0.7 µs a pair
# (2 CPUs, Python 3.11.7), so even at the bound a run takes minutes, not
# days.
MAX_SYNTHETIC_ROWS = 10_000


class IngestError(Exception):
    pass


def _read_rows(path, header):
    """(physical line number, row) pairs after the header. A line that
    starts with '#' is a comment and is dropped before CSV parsing, so a
    quote in a comment cannot open a field."""
    if not os.path.exists(path):
        raise IngestError(f"missing dataset file: {path}")
    try:
        with open(path, newline="", encoding="utf-8") as f:
            kept = [(n, line) for n, line in enumerate(f, start=1)
                    if not line.startswith("#")]
    except (OSError, UnicodeDecodeError) as exc:
        raise IngestError(f"cannot read dataset file {path}: {exc}") from exc
    reader = csv.reader(line for _, line in kept)
    rows = [(kept[reader.line_num - 1][0], row) for row in reader]
    if not rows or rows[0][1] != header:
        raise IngestError(f"{path}: expected header {','.join(header)}")
    if len(rows) == 1:
        raise IngestError(f"{path}: no data rows")
    return rows[1:]


def load_counties(path):
    counties = []
    for lineno, row in _read_rows(path, COUNTY_HEADER):
        try:
            fips, name, lat, lon, pop = row
            counties.append(County(fips=fips, name=name, lat=float(lat),
                                   lon=float(lon), population=int(pop)))
        except (ValueError, TypeError) as exc:
            raise IngestError(f"{path}: line {lineno}: {exc}") from exc
    return counties


def load_sites(path):
    """Sites in file order; ids must be unique, since placement keys its
    candidate sites by id."""
    sites = {}
    for lineno, row in _read_rows(path, SITE_HEADER):
        try:
            sid, lat, lon = row
            site = SitePoint(id=sid, lat=float(lat), lon=float(lon))
        except (ValueError, TypeError) as exc:
            raise IngestError(f"{path}: line {lineno}: {exc}") from exc
        if sid in sites:
            raise IngestError(f"{path}: line {lineno}: duplicate site id {sid}")
        sites[sid] = site
    return list(sites.values())


def generate_synthetic(seed, n_counties=40, n_pops=8, n_cdns=4,
                       n_clusters=5):
    """Clustered synthetic instance: population centers with counties
    scattered around them, PoPs and CDNs biased toward the centers."""
    for name, n in (("n_counties", n_counties), ("n_pops", n_pops),
                    ("n_cdns", n_cdns)):
        if n > MAX_SYNTHETIC_ROWS:
            raise ValueError(
                f"{name} must be at most {MAX_SYNTHETIC_ROWS}, got {n}")
    rng = random.Random(seed)
    lat_min, lon_min, lat_max, lon_max = DEFAULT_BBOX
    centers = [(rng.uniform(lat_min, lat_max), rng.uniform(lon_min, lon_max))
               for _ in range(n_clusters)]
    weights = [rng.uniform(0.5, 2.0) for _ in range(n_clusters)]

    def near(center, spread):
        lat = min(lat_max, max(lat_min, rng.gauss(center[0], spread)))
        lon = min(lon_max, max(lon_min, rng.gauss(center[1], 2 * spread)))
        return lat, lon

    counties = []
    for i in range(n_counties):
        ci = rng.choices(range(n_clusters), weights=weights)[0]
        lat, lon = near(centers[ci], 1.5)
        pop = max(1000, round(rng.lognormvariate(11, 1) * weights[ci]))
        counties.append(County(fips=f"{i:05d}", name=f"county{i}",
                               lat=lat, lon=lon, population=pop))
    pops = []
    for i in range(n_pops):
        ci = rng.choices(range(n_clusters), weights=weights)[0]
        lat, lon = near(centers[ci], 2.5)
        pops.append(SitePoint(id=f"pop{i:03d}", lat=lat, lon=lon))
    cdns = []
    for i in range(n_cdns):
        ci = rng.choices(range(n_clusters), weights=weights)[0]
        lat, lon = near(centers[ci], 3.0)
        cdns.append(SitePoint(id=f"cdn{i:03d}", lat=lat, lon=lon))
    return counties, pops, cdns


def write_csv_atomic(path, header, rows, preamble=""):
    """Write `preamble` (raw text, such as a `#` comment line), then the
    CSV header and rows, to a fresh temp file beside `path`, fsync it and
    rename it over `path`. On any error the old file stays and the temp
    file goes."""
    directory, name = os.path.split(path)
    tmp = os.path.join(directory, f".{name}.{os.urandom(8).hex()}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w", newline="") as f:
            f.write(preamble)
            w = csv.writer(f)
            w.writerow(header)
            w.writerows(rows)
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise
    return path


def write_dataset(out_dir, counties, pops, cdns):
    os.makedirs(out_dir, exist_ok=True)
    total_pop = sum(c.population for c in counties)
    paths = {"counties": write_csv_atomic(
        os.path.join(out_dir, "counties.csv"), COUNTY_HEADER,
        ([c.fips, c.name, f"{c.lat:.6f}", f"{c.lon:.6f}", c.population]
         for c in counties),
        preamble=f"# total_population={total_pop}\n")}
    for key, sites in (("pops", pops), ("cdns", cdns)):
        paths[key] = write_csv_atomic(
            os.path.join(out_dir, f"{key}.csv"), SITE_HEADER,
            ([s.id, f"{s.lat:.6f}", f"{s.lon:.6f}"] for s in sites))
    return paths
