"""Golden digests: generated traces stay bit-identical across refactors.

Every figure, table and cached result in the repository is a function of
the synthetic traces, so the generator's output is pinned byte for byte:
a sha256 digest of the ``(addrs, writes, gaps)`` columns for every
profile at two budgets and two seeds, plus hand-built edge cases for the
budget cut (met exactly at a segment boundary and inside a segment),
``max_records`` cutting inside a segment, and a ``scan`` phase.

The digests were recorded with the original whole-segment generator; an
optimisation of :mod:`repro.workloads.synthetic` must reproduce them.
"""

import hashlib

import numpy as np
import pytest

from repro.workloads.profiles import ALL_BENCHMARKS, BenchmarkProfile
from repro.workloads.synthetic import PhaseSpec, generate_trace

BUDGETS = (150_000, 1_000_000)
SEEDS = (0, 1)


def trace_digest(trace) -> str:
    """sha256 of the three columns in a fixed dtype (first 16 hex digits)."""
    h = hashlib.sha256()
    h.update(np.ascontiguousarray(trace.addrs, dtype=np.int64).tobytes())
    h.update(np.ascontiguousarray(trace.writes, dtype=np.bool_).tobytes())
    h.update(np.ascontiguousarray(trace.gaps, dtype=np.int64).tobytes())
    return h.hexdigest()[:16]


def profile_with(phases) -> BenchmarkProfile:
    return BenchmarkProfile(
        name="golden",
        acronym="Gd",
        suite="spec",
        phases=tuple(phases),
        write_fraction=0.3,
        gap_mean=20.0,
        base_cpi=1.0,
        footprint_lines=1000,
    )


#: (budget, seed) -> {profile name: digest}.
GOLDEN: dict[tuple[int, int], dict[str, str]] = {
    (150000, 0): {
        "astar": "ceb4ea06464e3887",
        "bwaves": "7981f80f0cc9789f",
        "bzip2": "73d25e8b8d395349",
        "cactusADM": "f5560c6077e30d28",
        "calculix": "cfc187e78d344f4a",
        "dealII": "473abbeef683298a",
        "gamess": "eebbc5abc1921c6f",
        "gcc": "2fbe6d72965585cd",
        "gemsFDTD": "0904b63cfa924911",
        "gobmk": "58765248ce6e3bc4",
        "gromacs": "8dde45f100667dff",
        "h264ref": "ee5f64a11d56e8bb",
        "hmmer": "60d7fcf7082b3dda",
        "lbm": "ed71ec799b6c1030",
        "leslie3d": "e678e93decab04a1",
        "libquantum": "e17ffe1eb593c7be",
        "mcf": "87209c46557a5f21",
        "milc": "368285ff84b4b182",
        "namd": "a283155d5dd62886",
        "omnetpp": "65c6234e26725043",
        "perlbench": "01176909da6983e8",
        "povray": "4f29c50d6bad8f35",
        "sjeng": "b299dde8d17a20f0",
        "soplex": "156421e07e4fe747",
        "sphinx": "a255757929213edf",
        "tonto": "1f8ab29fad3e2c85",
        "wrf": "f8a828d305d2b4b6",
        "xalancbmk": "665277848bf60e0b",
        "zeusmp": "f5247b5e085d7edf",
        "amg2013": "bf827b5eaddf3f0c",
        "comd": "eaad8407fc035a87",
        "lulesh": "7bedef85aae21143",
        "nekbone": "e58958448c131df8",
        "xsbench": "eb69c8f5f154848f",
    },
    (150000, 1): {
        "astar": "bbae09fee85ef1ff",
        "bwaves": "3cd452cb0ce20961",
        "bzip2": "d7f4cc0b39e29110",
        "cactusADM": "0c0cbb7847140391",
        "calculix": "2d45a2291174c7d9",
        "dealII": "832b88641895f7de",
        "gamess": "4dba147242367a80",
        "gcc": "d592c4befdaf5565",
        "gemsFDTD": "aa82879ccc061d32",
        "gobmk": "08e3b3cab84ef286",
        "gromacs": "37694317b09bc3b5",
        "h264ref": "88a9bccc35ba7aaf",
        "hmmer": "50ab4ce0da901e5b",
        "lbm": "3cc978d48c0ab04b",
        "leslie3d": "312ba70539c3d88c",
        "libquantum": "962f55073a44c3d8",
        "mcf": "0e5056f8cde2d8ed",
        "milc": "fdf0fa5c11085382",
        "namd": "306212871560992b",
        "omnetpp": "47387ca1fa0dde85",
        "perlbench": "330c31b6551e7829",
        "povray": "dabc1d439c302523",
        "sjeng": "a08af9848ea297a3",
        "soplex": "f2a8230c75c40e66",
        "sphinx": "183effe87a89fff8",
        "tonto": "fdb70c9b412bb3c4",
        "wrf": "055630fcc6261065",
        "xalancbmk": "1cc8517ec886e5f2",
        "zeusmp": "4187529cb9d6115d",
        "amg2013": "fe0f329b5b19e987",
        "comd": "d31c0782d1fffe02",
        "lulesh": "3f52064d12a3b01b",
        "nekbone": "21d9a1ce91b93b3d",
        "xsbench": "c3cfc5621ef0094d",
    },
    (1000000, 0): {
        "astar": "4c9e0ead8e43503c",
        "bwaves": "566886c85c08ef8a",
        "bzip2": "f86967c6db36da03",
        "cactusADM": "15edcd418281189e",
        "calculix": "fe336efc40435f76",
        "dealII": "ae29499d24ca58f6",
        "gamess": "61548a852a353ead",
        "gcc": "2a2b9580cbf51a05",
        "gemsFDTD": "091fdf6bf89e87dc",
        "gobmk": "b25be808ff667fde",
        "gromacs": "9b775198d39209b4",
        "h264ref": "f76a4d48adc22f0b",
        "hmmer": "28f1e3e2e38d5121",
        "lbm": "0bf441689949dd6a",
        "leslie3d": "7e4bedaa75017960",
        "libquantum": "f99deb86cbdb82d5",
        "mcf": "1a349e2965ba4894",
        "milc": "75fedb312a2147c5",
        "namd": "84c3c7c71e80888e",
        "omnetpp": "28bba62c79a1862d",
        "perlbench": "dde69fc521e3c1fd",
        "povray": "7d86bc5214183d69",
        "sjeng": "65bec87605888fd5",
        "soplex": "07b8998f04379748",
        "sphinx": "a882b766eb3f032e",
        "tonto": "708ad1ca48ba7370",
        "wrf": "e3b6f99922d795cf",
        "xalancbmk": "2d036475ddaadff1",
        "zeusmp": "062eb4057e408731",
        "amg2013": "02a3185066a76ba9",
        "comd": "663168ba7cd6296a",
        "lulesh": "fcfea5859365a1e8",
        "nekbone": "917f775fa6980b3a",
        "xsbench": "bc1819079206b444",
    },
    (1000000, 1): {
        "astar": "9406e7162cec8103",
        "bwaves": "d2dba4605d404bad",
        "bzip2": "ad593fc6efd07354",
        "cactusADM": "82973b3f07e18be1",
        "calculix": "48c602e7b942b06e",
        "dealII": "be69ea00074544f1",
        "gamess": "576ee9a35dde01c8",
        "gcc": "31c566f66e443c87",
        "gemsFDTD": "89a73cba64b6c5d5",
        "gobmk": "c72e34fb62fc3b3e",
        "gromacs": "eab0f69661b7d7f1",
        "h264ref": "dbe286f12360bd25",
        "hmmer": "37896f75a9f77ab5",
        "lbm": "31600e9ac81ef1e9",
        "leslie3d": "44536e4af648b83c",
        "libquantum": "2ad491cbe0cd5324",
        "mcf": "a0666d94e110df39",
        "milc": "80549554d5da62ba",
        "namd": "ad6041ff2d02a22b",
        "omnetpp": "783e59bc2102863f",
        "perlbench": "708f7a3feeb37271",
        "povray": "790696097efe0aa3",
        "sjeng": "636bc6c1d412adab",
        "soplex": "18a7e4909a030db1",
        "sphinx": "7bbc3df7941c0bb6",
        "tonto": "1835638cbab7519d",
        "wrf": "2e6553ba8a1b8f73",
        "xalancbmk": "9c154089bea86648",
        "zeusmp": "2dccc012a6910007",
        "amg2013": "371e84cac25b4224",
        "comd": "4b97ffcb50c65678",
        "lulesh": "96f974395c201fc5",
        "nekbone": "f405f197e1d4e482",
        "xsbench": "c57d3a43cfe1fee3",
    },
}


@pytest.mark.parametrize("budget", BUDGETS)
@pytest.mark.parametrize("seed", SEEDS)
def test_profile_traces_match_golden(budget, seed):
    digests = {
        p.name: trace_digest(generate_trace(p, budget, seed=seed))
        for p in ALL_BENCHMARKS
    }
    assert len(digests) == 34
    assert digests == GOLDEN[(budget, seed)]


#: One mixture phase of 1,000-record segments.
MIXTURE = profile_with([PhaseSpec(ws_lines=5000, segment_records=1000)])
#: A 700-record mixture segment followed by a 500-record cyclic scan.
WITH_SCAN = profile_with(
    [
        PhaseSpec(ws_lines=3000, segment_records=700),
        PhaseSpec(ws_lines=2500, pattern="scan", segment_records=500),
    ]
)


def _instructions_through(profile, max_records):
    """Full-segment reference trace and its cumulative instruction count."""
    full = generate_trace(profile, 10**9, max_records=max_records)
    return full, np.cumsum(full.gaps + 1)


def test_reference_traces_match_golden():
    full, _ = _instructions_through(MIXTURE, 3000)
    assert trace_digest(full) == "9a5a4f70521397db"
    full, _ = _instructions_through(WITH_SCAN, 2400)
    assert trace_digest(full) == "4c4aadb70ccb1af1"


def test_budget_met_exactly_at_segment_boundary():
    """``side="left"``: a budget met by the last record of segment 2 stops
    there -- no record of segment 3 rides along."""
    full, cum = _instructions_through(MIXTURE, 3000)
    budget = int(cum[1999])
    assert budget == 42532
    trace = generate_trace(MIXTURE, budget)
    assert len(trace) == 2000
    assert trace.instructions == budget
    assert trace_digest(trace) == "047a5220d1c30548"
    np.testing.assert_array_equal(trace.addrs, full.addrs[:2000])


@pytest.mark.parametrize(
    "offset, records, digest",
    [
        (-1, 1500, "07e446e680163449"),
        (0, 1500, "07e446e680163449"),
        (1, 1501, "42eb7146e1cbfb19"),
    ],
)
def test_budget_cut_inside_segment(offset, records, digest):
    """The record that meets (or first overshoots) the budget is the last."""
    full, cum = _instructions_through(MIXTURE, 3000)
    budget = int(cum[1499]) + offset
    trace = generate_trace(MIXTURE, budget)
    assert len(trace) == records
    assert trace_digest(trace) == digest
    np.testing.assert_array_equal(trace.addrs, full.addrs[:records])
    np.testing.assert_array_equal(trace.gaps, full.gaps[:records])


def test_max_records_cuts_inside_segment():
    """``max_records`` shortens the draws of the segment it cuts, so the
    trace is not a prefix of the full-segment one -- but is pinned."""
    _full, cum = _instructions_through(MIXTURE, 3000)
    unbounded = generate_trace(MIXTURE, 10**9, max_records=1500)
    bounded = generate_trace(MIXTURE, int(cum[2999]), max_records=1500)
    assert len(unbounded) == len(bounded) == 1500
    assert trace_digest(unbounded) == "0586eba181aa6a25"
    assert trace_digest(bounded) == "0586eba181aa6a25"


def test_budget_cut_inside_scan_phase():
    full, cum = _instructions_through(WITH_SCAN, 2400)
    budget = int(cum[900])
    assert budget == 20055
    trace = generate_trace(WITH_SCAN, budget)
    assert len(trace) == 901
    assert trace_digest(trace) == "f710cf9a6cb50a3e"
    np.testing.assert_array_equal(trace.addrs, full.addrs[:901])
