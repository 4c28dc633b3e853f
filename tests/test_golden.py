"""Golden outputs pinned across commits.

Criterion 9 checks that a seeded run repeats itself within one checkout; it
cannot see a change that moves every run the same way.  These literals were
computed before the slice core moved to global vertex ids, and the refactor
had to reproduce them exactly: the SHA-256 of the formatted ``run_chain``
sample stream for one small seeded slice per family, and ``log_value.hex()``
of one estimate of each kind on an n=8 graph.

A change that alters a random stream on purpose (a new step kernel, say)
updates the digests here and says so in CHANGES.md.  The one-sided literals
were recomputed when the one-sided kernel moved to weight-class draws (three
uniforms a step instead of two).  The two-sided and regular literals were
recomputed when the uniform kernel dropped its candidate pools and began to
draw the replacement by rejection, one uniform per proposal, so a step reads
a variable number of uniforms; the one-sided literal did not move.  The
one-sided literal was recomputed when the one-sided kernel dropped its pools
too and began to draw by rejection, two uniforms a proposal (an id of X and
a coin against the weight of its class relative to the lightest occupied
one).  Nothing else moved with it: the two-sided and regular kernels are
untouched, the verify runs step no one-sided chain, and the n=8 estimates
never rejuvenate a particle, so they run no kernel at all.

Those chains are lazy and small.  ``LONG_CHAIN_DIGESTS`` pins the non-lazy
path at n=200 with an explicit burn-in and thinning, one slice per kernel,
and a regular chain continued through ``initial=`` in four 175-step
segments, the pattern of the benchmark's chain workload, whose digest also
covers the free order after each segment.  They were computed before the
pool kernels became one multi-step loop each.  The ``non-lazy-two-sided``
and ``segments`` literals were recomputed with the rejection kernel above;
``non-lazy-one-sided`` did not move then; it was recomputed with the
one-sided rejection kernel, and ``segments`` did not move.

The ``verify-spectral`` digests are the SHA-256 of the JSON report with
``--full-records``, without its reproducibility stanza (which holds the input
path and the package version).  They were computed before the top-link
sweeps moved to one face source and one sweep loop, and cover an exhaustive
run of each family plus a run whose cross faces are sampled while its
same-side faces stay under ``--face-cap``.  The two two-sided digests were
recomputed when cross links moved to singular values and same-side links to
-1/(m-1): their reports match the previous code's field for field, apart
from lambda2 values and the worst margin, which moved by at most 1e-15.  The
sampled run gained ``--sample-count 30`` then, because a face kind with no
more faces than the sample count is now enumerated.  They were recomputed
again when the dense spectrum summary moved from ``eigh`` to ``eigvalsh``,
which moves lambda2(A_G) by a few ulps: field for field, only the bounds
moved, by at most 7.8e-16, and every status matched.  The sampled digest
was recomputed once more when the uniform kernel moved to rejection draws,
because its sampled cross faces are the facets of a two-sided ``run_chain``:
field for field, 29 of its 30 sampled cross records moved, in their faces
and lambda2 values only; their bounds, the 90 same-side records, every
status (all pass) and the sweep summary (120 records, worst margin 1/6) did
not.

``test_empty_and_full_slice_estimate_bits`` was computed before the
estimators lost their early returns for a slice with nothing free, which a
telescoping path computed for a while; they now read the closed forms again,
with the same bits.

The four estimate literals (``test_two_sided_estimate_bits``,
``test_one_sided_estimate_bits``, ``test_partition_hat_bits`` and
``test_median_of_repetitions_bits``) were recomputed when a sampled level
small enough for a facet table began to start each replica at an exact draw
from the level's law, with no burn-in, instead of at a greedy facet burned
in: the start state and the step count both changed, so every sampled
level's chain moved.  Each asserts that its estimate lies within its epsilon
of the exact oracle, which the changed values met before they were pinned.
The empty and full slice literals sample no level and did not move.

They were recomputed again when a table level's replicas began to step in
lockstep: 128 replicas instead of 4, the starts of a phase drawn from one
stream and its steps from another, read time-major.  Every sampled level
then draws different uniforms, and each replica's sample count is rounded
up over more replicas, so the samples moved with the values.  Each
estimate was checked within its epsilon of the exact oracle before it was
pinned: the two-sided count 15.8% above it, the one-sided partition 5.8%
below, the banded estimate 0.18% above and the median of repetitions 0.47%
below.

They were recomputed once more when a phase began to split its samples
evenly over at most 512 table replicas (ceil(n / ceil(n / 512)) of them,
each taking ceil(n / 512) samples) instead of rounding each of 128 replicas'
share up: a table level runs a different set of replica columns, so its
chains and sample counts moved.  Each estimate was checked within its
epsilon of the exact oracle before it was pinned: the two-sided count 2.0%
above it, the one-sided partition 10.7% below, the banded estimate 2.7%
below and the median of repetitions 1.5% below.

The three estimate literals left were recomputed when one particle system
per two-sided row and one-sided band replaced the telescope, and the median
of repetitions went with it.  Each was checked within its epsilon of the
exact oracle before it was pinned: the two-sided count 1.7% below it, the
one-sided partition 1.1% above and the banded estimate 0.66% below.

``SLOW_MIXING_DIGESTS`` pin the ``slow-mixing`` experiment's report: the
SHA-256 of the canonical JSON (sorted keys, no spaces) of its ``exact`` and
``empirical`` sections, without ``config``, which echoes the driver's
settable values rather than its results.  One run compiles a facet table
(two K_{8,8} components, whose 1,820 facets the chains step through in
lockstep); the other lies above the experiment's exact cap of 20,000
facets (two K_{16,16}), where each chain steps alone through the kernel.  They were computed
before the facet table was cut down to one-sided slices without a law,
which had to reproduce them exactly, and did not move when the table began
to read its rows off the chain state at each face instead of compiling
them by array operations over the enumeration.  Both were recomputed when
the one-sided kernel moved to rejection draws, which the table replays:
the ``exact`` sections did not move, and the ``empirical`` ones did.  Now
none of the table run's 8 chains escapes (the exact chance that one stays
is 0.74, so all 8 stay with chance about 0.09; over 400 runs at seeds 2 and
3 the stay fractions were 0.71 and 0.72), and 1 of the scalar run's 4
stays.
"""
from __future__ import annotations

import hashlib
import json

import pytest

from slicewalk.cli import main
from slicewalk.counting import (estimate_one_sided_partition, estimate_partition_hat,
                                estimate_two_sided_count, exact_one_sided_partition,
                                exact_partition_hat, exact_slice_count, thresholds)
from slicewalk.graphs import gen_bipartite_regular, gen_regular, save_graph
from slicewalk.slices import OneSidedSlice, RegularSlice, TwoSidedSlice
from slicewalk.rng import rng_stream
from slicewalk.walks import ChainConfig, format_facet, greedy_initial_state, run_chain

CHAIN_DIGESTS = {
    "two-sided": "7ecb1e7bdf650b2def9d0583e27961fd0cf2f9a74fbeaef3a150c5ba0d33b31b",
    "one-sided": "7ecda7eba188121583961b28edebfb50b31d9c80a09588cb21dfef912d5e30cd",
    "regular": "92df6801953bfcd77bdbaec4bc837c8f4a53c2da278e1ab3a77d69c5d4f6ab50",
}


def _slice(family: str):
    g = gen_bipartite_regular(8, 3, seed=1)
    if family == "two-sided":
        return TwoSidedSlice(g, 2, 2)
    if family == "one-sided":
        return OneSidedSlice(g, 3, 0.3)
    return RegularSlice(gen_regular(10, 3, seed=1), 3)


@pytest.mark.parametrize("family", sorted(CHAIN_DIGESTS))
def test_chain_stream_digest(family):
    slc = _slice(family)
    samples, _ = run_chain(slc, ChainConfig(steps=5000, seed=11))
    text = "\n".join(format_facet(slc, f) for f in samples)
    assert hashlib.sha256(text.encode()).hexdigest() == CHAIN_DIGESTS[family]


LONG_CHAIN_DIGESTS = {
    "non-lazy-two-sided": "be5206d923bf651320f91e4218d8a29d99bc8309d6c1f1f2d56343fc8e8cd070",
    "non-lazy-one-sided": "495c50c7d305699a4bb536b4bef57de570704c86b880fcaf0ceb66a759ccc8c3",
    "segments": "8b6486b11779aee08c12b582e2893897bd4451c0158e3fbb840608a5f7e0ba33",
}


def _long_chain_text(run: str) -> str:
    if run == "segments":
        slc = RegularSlice(gen_regular(200, 3, seed=3), 7)
        state = greedy_initial_state(slc, rng_stream(5))
        lines = []
        for seg in range(4):
            cfg = ChainConfig(steps=175, seed=30 + seg, lazy=False, burn_in=0,
                              oracle_cap=0, gap_cap=0)
            samples, _ = run_chain(slc, cfg, initial=state)
            lines += [format_facet(slc, f) for f in samples]
            lines.append(" ".join(map(str, state.free)))
        return "\n".join(lines)
    g = gen_bipartite_regular(200, 3, seed=2)
    slc = TwoSidedSlice(g, 6, 5) if run == "non-lazy-two-sided" else OneSidedSlice(g, 8, 0.2)
    cfg = ChainConfig(steps=4000, seed=21, lazy=False, burn_in=37, thinning=13,
                      oracle_cap=0, gap_cap=0)
    samples, _ = run_chain(slc, cfg)
    return "\n".join(format_facet(slc, f) for f in samples)


@pytest.mark.parametrize("run", sorted(LONG_CHAIN_DIGESTS))
def test_long_chain_digest(run):
    text = _long_chain_text(run)
    assert hashlib.sha256(text.encode()).hexdigest() == LONG_CHAIN_DIGESTS[run]


def test_two_sided_estimate_bits():
    g = gen_bipartite_regular(8, 3, seed=1)
    est = estimate_two_sided_count(g, 2, 2, 0.3, 0.1, seed=5)
    assert est.log_value.hex() == "0x1.18ef7393897f6p+2"
    record, = est.trace
    assert (record.band, record.k_x, record.top, record.particles) == ("two-sided", 2, 2, 512)
    assert (record.resamplings, record.steps, record.samples) == (0, 0, 1024)
    assert est.samples == 1024
    assert abs(est.value / exact_slice_count(g, 2, 2) - 1) <= 0.3


def test_one_sided_estimate_bits():
    g = gen_bipartite_regular(8, 3, seed=1)
    est = estimate_one_sided_partition(g, 3, 0.3, 0.3, 0.1, seed=5)
    assert est.log_value.hex() == "0x1.a50d5e6f6d6b1p-1"
    record, = est.trace
    assert (record.band, record.k_x, record.top, record.particles) == ("one-sided", None, 3, 512)
    assert est.samples == 1024
    assert abs(est.value / exact_one_sided_partition(g, 3, 0.3) - 1) <= 0.3


def test_partition_hat_bits():
    # alpha n = 1 and beta n = 8: the grid holds the rows k_x = 0 and 1 and
    # the one-sided bands end at k = n
    g = gen_bipartite_regular(8, 3, seed=1)
    thr = thresholds(3, 0.25)
    est = estimate_partition_hat(g, 0.25, 0.3, 0.3, seed=1, thr=thr)
    assert est.log_value.hex() == "0x1.6ced7d2ea171ap+1"
    assert est.samples == 4096
    assert [(b.kind, b.k_range, b.value_log.hex(), b.samples) for b in est.bands] == [
        ("two-sided", (0, 1), "0x1.01e85798eb9a3p+1", 2048),
        ("one-sided-x", (2, 8), "0x1.95ead5b347c46p+0", 1024),
        ("one-sided-y", (2, 8), "0x1.9807a19f00c7fp+0", 1024),
    ]
    exact = exact_partition_hat(g, 0.25, thr)
    assert [v.hex() for v in exact] == ["0x1.16baa00000000p+4", "0x1.95d0000000000p-2"]
    assert abs(est.value / exact[0] - 1) <= 0.3


@pytest.mark.parametrize("kind, k, bits", [
    ("two-sided", 0, "0x0.0p+0"),
    ("one-sided", 0, "0x1.0ca937be1b9dcp+1"),
    ("one-sided", 8, "-0x1.34378fcbda721p+3"),
])
def test_empty_and_full_slice_estimate_bits(kind, k, bits):
    g = gen_bipartite_regular(8, 3, seed=1)
    if kind == "two-sided":
        est = estimate_two_sided_count(g, k, k, 0.3, 0.1, seed=5)
    else:
        est = estimate_one_sided_partition(g, k, 0.3, 0.3, 0.1, seed=5)
    assert est.log_value.hex() == bits
    assert est.samples == 0
    assert est.trace == ()


VERIFY_DIGESTS = {
    "two-sided": "fe3d0756babbcafac9ace55f7dca1ac65a5e7b0cf946ff20a4506e1e9933759e",
    "one-sided": "71d65b023b637b2cf17967831d3ee868e1ca41e9a231ecdff660e25c93a40d5a",
    "regular": "afcce2306635d5fd8d2bac8e03fd45782e3b8b64a050b0a09633a73e52b942f9",
    "sampled-cross": "7e608f8171d010a70f54c1c3223b5675f0acf4fa110441f69cc90284525bbca0",
}

VERIFY_RUNS = {
    "two-sided": (("bipartite", 10, 1), ["--two-sided", "--kx", "2", "--ky", "2"]),
    "one-sided": (("bipartite", 12, 2), ["--one-sided", "--k", "3", "--lambda", "0.25"]),
    "regular": (("regular", 12, 1), ["--regular", "--k", "3"]),
    # 100 cross faces exceed the cap and the sample count and are sampled; 45
    # same-side faces per side do not
    "sampled-cross": (("bipartite", 10, 1), ["--two-sided", "--kx", "2", "--ky", "2",
                                             "--face-cap", "50", "--sample-count", "30",
                                             "--seed", "4"]),
}


@pytest.mark.parametrize("run", sorted(VERIFY_RUNS))
def test_verify_report_digest(run, tmp_path, capsys):
    (kind, n, seed), argv = VERIFY_RUNS[run]
    gen = gen_bipartite_regular if kind == "bipartite" else gen_regular
    g = gen(n, 3, seed=seed)
    path = tmp_path / "g.txt"
    save_graph(g, path)
    assert main(["verify-spectral", *argv, "--in", str(path), "--full-records"]) == 0
    report = json.loads(capsys.readouterr().out)
    del report["reproducibility"]
    text = json.dumps(report, sort_keys=True, indent=2)
    assert hashlib.sha256(text.encode()).hexdigest() == VERIFY_DIGESTS[run]


def test_verify_report_digest_at_a_huge_fugacity(tmp_path, capsys):
    # (1 + 1e100)^3 still fits float64, so both one-sided sweeps run; at
    # 1e200 the command exits 2 instead (see test_cli)
    g = gen_bipartite_regular(12, 3, seed=1)
    path = tmp_path / "g.txt"
    save_graph(g, path)
    assert main(["verify-spectral", "--one-sided", "--k", "3", "--lambda", "1e100",
                 "--in", str(path), "--full-records"]) == 0
    report = json.loads(capsys.readouterr().out)
    del report["reproducibility"]
    text = json.dumps(report, sort_keys=True, indent=2)
    assert (hashlib.sha256(text.encode()).hexdigest()
            == "418d5e1c75ff9e04e9064a65e8ec6abce4156c47cf3d33837600f260909a2add")


SLOW_MIXING_DIGESTS = {
    "table": "ff8a89b761407c4bcc8d5d61b2f89bc3a870509a4df649f898feb38f74234805",
    "scalar": "ad69085d45c03afc7beb8ecefe018c2d9c68ddf99c3ac090f4225870b348acae",
}

SLOW_MIXING_RUNS = {
    # C(16, 4) = 1,820 facets fit SLOW_MIXING_EXACT_CAP: the exact chain and a facet table
    "table": ["--n", "8", "--delta", "8", "--lambda", "3", "--runs", "8",
              "--steps", "20000"],
    # C(32, 4) = 35,960 facets exceed it: no exact chain, and each run steps alone
    "scalar": ["--n", "16", "--delta", "16", "--lambda", "0.65", "--runs", "4",
               "--steps", "2000"],
}


@pytest.mark.parametrize("run", sorted(SLOW_MIXING_RUNS))
def test_slow_mixing_report_digest(run, capsys):
    assert main(["experiment", "--name", "slow-mixing", "--k", "4", "--seed", "2",
                 *SLOW_MIXING_RUNS[run]]) == 0
    report = json.loads(capsys.readouterr().out)
    results = {key: report[key] for key in ("exact", "empirical") if key in report}
    assert ("exact" in results) == (run == "table")
    text = json.dumps(results, sort_keys=True, separators=(",", ":"))
    assert hashlib.sha256(text.encode()).hexdigest() == SLOW_MIXING_DIGESTS[run]
