"""Exact oracles for the array-native fault hooks.

Each link injector's array hook, and :class:`FaultPlan`'s masks and
stream corruption, are compared with exact equality against the
per-call hooks and the per-row plan loop they replaced.  Those live
here only, as references: a reference injector wraps a freshly built
injector for its parameters and its generator, and runs the old
scalar body on them.
"""

import bisect

import numpy as np
import pytest

from repro import obs
from repro.faults import (
    BurstState,
    FaultPlan,
    InterferenceBurst,
    NanCorruption,
    parse_fault_spec,
)
from repro.faults.injectors import _bernoulli_draws
from repro.measurement import ChannelMeasurement, MeasurementStream

pytestmark = pytest.mark.chaos


# -- reference: the per-call hooks and the per-row plan loop ------------------

class RefBurstState:
    """The list-and-bisect schedule, extended one query at a time."""

    def __init__(self, duty_cycle, mean_burst_s, rng):
        self.duty_cycle = duty_cycle
        self.mean_burst_s = mean_burst_s
        self._rng = rng
        self._bad = []
        self._starts = []
        self._horizon_s = 0.0

    def _extend_to(self, time_s):
        mean_good = (self.mean_burst_s * (1.0 - self.duty_cycle)
                     / self.duty_cycle)
        while self._horizon_s <= time_s:
            good = self._rng.exponential(mean_good)
            bad = self._rng.exponential(self.mean_burst_s)
            start = self._horizon_s + good
            self._bad.append((start, start + bad))
            self._starts.append(start)
            self._horizon_s = start + bad

    def burst_index(self, time_s):
        if self.duty_cycle == 0.0 or time_s < 0:
            return None
        self._extend_to(time_s)
        idx = bisect.bisect_right(self._starts, time_s) - 1
        if idx < 0:
            return None
        start, end = self._bad[idx]
        return idx if start <= time_s < end else None

    def in_burst(self, time_s):
        return self.burst_index(time_s) is not None


class RefInjector:
    """Scalar twin of one injector: its hooks run one call per row."""

    def __init__(self, inj):
        self.inj = inj
        self.rng = inj.rng
        self.reset(rewind=False)

    def reset(self, rewind=True):
        if rewind:
            self.inj.reset()
        if hasattr(self.inj, "duty_cycle"):
            self.bursts = RefBurstState(
                self.inj.duty_cycle, self.inj.mean_burst_s, self.rng
            )
        self.burst_cells = {}


class RefOutage(RefInjector):
    def drop_packet(self, time_s):
        return self.bursts.in_burst(time_s)


class RefBrownout(RefInjector):
    def tag_powered(self, time_s):
        return not self.bursts.in_burst(time_s)


class RefInterference(RefInjector):
    def corrupt(self, csi, rssi_dbm, time_s):
        if not self.bursts.in_burst(time_s):
            return csi, rssi_dbm
        if csi is not None:
            # The scale is the mean magnitude of the finite cells.
            finite = np.isfinite(csi)
            count = int(finite.sum())
            mean = (float(np.where(finite, np.abs(csi), 0.0).sum() / count)
                    if count else 0.0)
            scale = self.inj.csi_noise_rel * max(mean, 1e-12)
            csi = csi + self.rng.normal(scale=scale, size=csi.shape)
        rssi_dbm = rssi_dbm + self.inj.rssi_shift_db + self.rng.normal(
            scale=1.0, size=rssi_dbm.shape
        )
        return csi, rssi_dbm


class RefCsiDropout(RefInjector):
    def _cells_for_burst(self, burst, shape):
        key = (burst, shape)
        if key not in self.burst_cells:
            total = int(np.prod(shape))
            count = max(1, int(round(self.inj.subchannel_fraction * total)))
            self.burst_cells[key] = self.rng.choice(
                total, size=count, replace=False
            )
        return self.burst_cells[key]

    def corrupt(self, csi, rssi_dbm, time_s):
        if csi is None:
            return csi, rssi_dbm
        burst = self.bursts.burst_index(time_s)
        if burst is None:
            return csi, rssi_dbm
        flat = csi.astype(float).reshape(-1).copy()
        flat[self._cells_for_burst(burst, csi.shape)] = self.inj.fill_value
        return flat.reshape(csi.shape), rssi_dbm


class RefNan(RefInjector):
    def corrupt(self, csi, rssi_dbm, time_s):
        if csi is None or self.rng.random() >= self.inj.probability:
            return csi, rssi_dbm
        flat = csi.astype(float).reshape(-1).copy()
        count = min(self.inj.cells, flat.size)
        flat[self.rng.choice(flat.size, size=count, replace=False)] = \
            self.inj._fill()
        return flat.reshape(csi.shape), rssi_dbm


class RefAgcJump(RefInjector):
    def corrupt(self, csi, rssi_dbm, time_s):
        if csi is None or self.rng.random() >= self.inj.probability:
            return csi, rssi_dbm
        jump_db = self.rng.uniform(-self.inj.max_jump_db, self.inj.max_jump_db)
        return csi * 10.0 ** (jump_db / 20.0), rssi_dbm


class RefDrift(RefInjector):
    def warp_timestamp(self, time_s):
        warped = time_s * (1.0 + self.inj.drift_ppm * 1e-6)
        if self.inj.jitter_std_s > 0:
            warped += self.rng.normal(scale=self.inj.jitter_std_s)
        return warped


REFERENCES = {
    "outage": RefOutage, "brownout": RefBrownout,
    "interference": RefInterference, "csi_dropout": RefCsiDropout,
    "nan": RefNan, "agc_jump": RefAgcJump, "drift": RefDrift,
}


class RefPlan:
    """The per-row plan loop over scalar twins of a spec's injectors."""

    def __init__(self, spec, base_seed):
        self.refs = [REFERENCES[inj.name](inj) for inj in
                     parse_fault_spec(spec, base_seed=base_seed).injectors]

    def reset(self):
        for ref in self.refs:
            ref.reset()

    def _with(self, hook):
        return [ref for ref in self.refs if hasattr(ref, hook)]

    def _first_hit(self, hook, times_s, hit_when):
        times = np.asarray(times_s, dtype=float)
        hits = np.zeros(len(times), dtype=bool)
        hooks = [getattr(ref, hook) for ref in self._with(hook)]
        for i, t in enumerate(times.tolist()):
            for fn in hooks:
                if bool(fn(t)) == hit_when:
                    hits[i] = True
                    break
        return hits

    def packet_mask(self, times_s):
        return ~self._first_hit("drop_packet", times_s, True)

    def tag_powered_mask(self, times_s):
        return ~self._first_hit("tag_powered", times_s, False)

    def _corrupt_row(self, csi, rssi, time_s):
        new_csi, new_rssi = csi, rssi
        for ref in self._with("corrupt"):
            new_csi, new_rssi = ref.corrupt(new_csi, new_rssi, time_s)
        warped = time_s
        for ref in self._with("warp_timestamp"):
            warped = ref.warp_timestamp(warped)
        changed = (new_csi is not csi or new_rssi is not rssi
                   or warped != time_s)
        return new_csi, new_rssi, warped, changed

    def corrupt_records(self, stream):
        """``(timestamps, csi, rssi, touched)`` of the corrupted stream."""
        times = stream.timestamps
        csi_out, rssi_out = stream.csi.copy(), stream.rssi_matrix().copy()
        warped = times.copy()
        touched = np.zeros(len(times), dtype=bool)
        for i, (t, has_csi) in enumerate(
            zip(times.tolist(), stream.has_csi.tolist())
        ):
            csi = stream.csi[i] if has_csi else None
            new_csi, new_rssi, warped[i], touched[i] = self._corrupt_row(
                csi, stream.rssi_matrix()[i], t
            )
            if has_csi:
                csi_out[i] = new_csi
            rssi_out[i] = new_rssi
        fixed = np.maximum.accumulate(warped)
        touched |= fixed != times
        return fixed, csi_out, rssi_out, touched


# -- fixtures -----------------------------------------------------------------

def make_stream(n, seed, span_s=2.0, start_s=0.0, no_csi_every=7):
    """``n`` sorted rows; every ``no_csi_every``-th row has no CSI."""
    rng = np.random.default_rng(seed)
    times = np.sort(rng.uniform(start_s, start_s + span_s, n))
    rows = [
        ChannelMeasurement(
            timestamp_s=float(t),
            csi=(None if no_csi_every and i % no_csi_every == 3
                 else rng.uniform(0.0, 8.0, (3, 30))),
            rssi_dbm=rng.normal(-40.0, 1.0, 3),
            source="ap" if i % 5 else "sta",
        )
        for i, t in enumerate(times)
    ]
    return MeasurementStream(rows)


def bits_of(a):
    return np.asarray(a, dtype=float).view(np.int64)


def assert_stream_equal(out, touched, expected):
    times, csi, rssi, changed = expected
    assert touched.tolist() == changed.tolist()
    assert np.array_equal(bits_of(out.timestamps), bits_of(times))
    rows = out.has_csi
    assert np.array_equal(bits_of(out.csi[rows]), bits_of(csi[rows]))
    assert np.array_equal(bits_of(out.rssi_matrix()), bits_of(rssi))


#: Bernoulli clauses on both sides of the block-draw threshold.
CORRUPTION_SPECS = [
    "interference:duty=0.3,burst=0.05",
    "interference:duty=0.3,burst=0.05,noise=0",
    "csi_dropout:duty=0.3,burst=0.05,frac=0.5",
    "nan:prob=0.01",
    "nan:prob=0.05",
    "nan:prob=0.3,cells=5,mode=inf",
    "agc_jump:prob=0.02",
    "agc_jump:prob=0.2",
    "drift:ppm=80,jitter=0.0005",
    "drift:ppm=-40",
    "csi_dropout:duty=0.3,burst=0.05,frac=0.5;nan:prob=0.01;"
    "agc_jump:prob=0.02",
    "csi_dropout:duty=0.3,burst=0.05,frac=0.5;nan:prob=0.05;"
    "agc_jump:prob=0.05",
    "nan:prob=0.2;csi_dropout:duty=0.4,burst=0.1,frac=0.2;"
    "interference:duty=0.5,burst=0.1;drift:ppm=80,jitter=0.0005",
]

MASK_SPECS = [
    "outage:duty=0.3,burst=0.05",
    "brownout:duty=0.3,burst=0.05",
    "outage:duty=0.2,burst=0.1;brownout:duty=0.15,burst=0.1;"
    "outage:duty=0.4,burst=0.02",
]


def mask_times(kind, seed):
    rng = np.random.default_rng(seed)
    if kind == "sorted":
        return np.linspace(0.0, 3.0, 1500)
    if kind == "negative":
        return np.linspace(-1.0, 2.0, 1500)
    if kind == "unsorted":
        return rng.uniform(-0.5, 3.0, 1500)
    if kind == "repeats":
        return np.repeat(rng.uniform(0.0, 2.0, 300), 3)
    raise ValueError(kind)


# -- masks --------------------------------------------------------------------

class TestMaskOracle:
    @pytest.mark.parametrize("spec", MASK_SPECS)
    @pytest.mark.parametrize("kind",
                             ["sorted", "negative", "unsorted", "repeats"])
    def test_masks_match_first_hit_loop(self, spec, kind):
        times = mask_times(kind, 3)
        plan, ref = parse_fault_spec(spec, base_seed=4), RefPlan(spec, 4)
        assert np.array_equal(plan.packet_mask(times), ref.packet_mask(times))
        assert np.array_equal(plan.tag_powered_mask(times),
                              ref.tag_powered_mask(times))

    @pytest.mark.parametrize("spec", MASK_SPECS)
    def test_bursts_span_two_calls(self, spec):
        times = np.linspace(0.0, 4.0, 4000)
        plan, ref = parse_fault_spec(spec, base_seed=8), RefPlan(spec, 8)
        whole = ref.packet_mask(times) & ref.tag_powered_mask(times)
        # Split inside a hit run, so one burst straddles the two calls.
        runs = np.flatnonzero(~whole[:-1] & ~whole[1:])
        cut = int(runs[len(runs) // 2]) + 1
        parts = [
            plan.packet_mask(part) & plan.tag_powered_mask(part)
            for part in (times[:cut], times[cut:])
        ]
        assert np.array_equal(np.concatenate(parts), whole)

    @pytest.mark.parametrize("spec", MASK_SPECS)
    def test_reset_replays(self, spec):
        times = mask_times("unsorted", 5)
        plan, ref = parse_fault_spec(spec, base_seed=2), RefPlan(spec, 2)
        runs = []
        for _ in range(2):
            runs.append([plan.packet_mask(times), plan.tag_powered_mask(times),
                         ref.packet_mask(times), ref.tag_powered_mask(times)])
            plan.reset()
            ref.reset()
        first, again = runs
        for a, b in zip(first, again):
            assert np.array_equal(a, b)
        assert np.array_equal(first[0], first[2])
        assert np.array_equal(first[1], first[3])

    @pytest.mark.parametrize("spec", MASK_SPECS)
    def test_one_row_calls_match_one_call(self, spec):
        """The per-frame adapters: n one-row calls == one n-row call."""
        times = mask_times("negative", 1)
        plan, ref = parse_fault_spec(spec, base_seed=6), RefPlan(spec, 6)
        with obs.session(metrics=True, tracing=False) as (registry, _):
            dropped = [plan.drop_packet(t) for t in times.tolist()]
            counters = registry.snapshot()
        powered = [plan.tag_powered(t) for t in times.tolist()]
        keep = ref.packet_mask(times)
        assert dropped == (~keep).tolist()
        assert powered == ref.tag_powered_mask(times).tolist()
        counted = counters.get("faults.packets.dropped", {}).get("value", 0)
        assert counted == int((~keep).sum())

    def test_hits_in_first_and_last_time(self):
        spec = "outage:duty=0.5,burst=0.3"
        twin = parse_fault_spec(spec, base_seed=1).injectors[0]
        schedule = RefBurstState(twin.duty_cycle, twin.mean_burst_s, twin.rng)
        schedule._extend_to(5.0)
        (s0, e0), (s1, e1) = schedule._bad[0], schedule._bad[3]
        times = np.linspace((s0 + e0) / 2, (s1 + e1) / 2, 700)
        keep = parse_fault_spec(spec, base_seed=1).packet_mask(times)
        assert not keep[0] and not keep[-1]
        assert np.array_equal(keep, RefPlan(spec, 1).packet_mask(times))

    def test_zero_duty_draws_nothing(self):
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        schedule = BurstState(0.0, 0.1, rng)
        assert not schedule.in_burst(np.linspace(0.0, 9.0, 50)).any()
        runs = list(schedule.segments(np.arange(4.0)))
        assert [(a, b, bursts.tolist()) for a, b, bursts in runs] \
            == [(0, 4, [-1] * 4)]
        assert rng.bit_generator.state == state


# -- per-row Bernoulli draws -------------------------------------------------

def assert_matches_loop(make_rng, probability, count):
    """``_bernoulli_draws`` against the scalar loop on twin generators,
    with ``choice`` as each hit's draw, then both generators' next
    ``random()`` and ``choice``: ``choice`` leaves half-used 32-bit words
    in the state, which a rewind must keep.  Returns the loop's hits."""
    loop_rng, rng = make_rng(), make_rng()
    expected = [
        (i, loop_rng.choice(90, size=3, replace=False).tolist())
        for i in range(count) if loop_rng.random() < probability
    ]
    hits, draws = _bernoulli_draws(
        rng, probability, count,
        lambda: rng.choice(90, size=3, replace=False).tolist(),
    )
    assert list(zip(hits, draws)) == expected
    assert rng.random() == loop_rng.random()
    assert rng.choice(90, size=3, replace=False).tolist() \
        == loop_rng.choice(90, size=3, replace=False).tolist()
    return [i for i, _ in expected]


class TestBernoulliDraws:
    @pytest.mark.parametrize("probability", [
        0.0, 5e-324, 1e-310, 1e-4, 0.01, 0.05, 0.2, 1.0,
    ])
    @pytest.mark.parametrize("bit_generator", [np.random.PCG64,
                                               np.random.MT19937])
    def test_matches_scalar_loop(self, probability, bit_generator):
        for count in (0, 1, 7, 2030):
            assert_matches_loop(lambda: np.random.Generator(bit_generator(5)),
                                probability, count)

    @pytest.mark.parametrize("side", [-1, 0, 1])
    @pytest.mark.parametrize("count", [7, 80, 2030])
    @pytest.mark.parametrize("bit_generator", [np.random.PCG64,
                                               np.random.MT19937])
    def test_one_block_guard(self, side, count, bit_generator):
        """Just below, at and just above ``p * count = 4``: below it the
        call is one block of ``count`` rows, from it on blocks of
        ``int(4 / p)`` rows and a short tail."""
        probability = 4.0 / count
        if side:
            probability = float(np.nextafter(probability, side))
        assert_matches_loop(lambda: np.random.Generator(bit_generator(5)),
                            probability, count)

    @pytest.mark.parametrize("bit_generator,seed", [
        (np.random.PCG64, 24), (np.random.MT19937, 2100),
    ])
    def test_hit_on_a_blocks_last_uniform(self, bit_generator, seed):
        """At p = 0.01 a block holds 400 rows; these seeds' first hit is
        row 399, which needs no rewind."""
        hits = assert_matches_loop(
            lambda: np.random.Generator(bit_generator(seed)), 0.01, 2030
        )
        assert hits[0] == 399

    @pytest.mark.parametrize("seed", range(40))
    def test_random_probabilities_and_counts(self, seed):
        """Mixed hit positions, runs of hits and short tail blocks."""
        pick = np.random.default_rng(seed)
        probability = float(10.0 ** pick.uniform(-4.0, 0.0))
        count = int(pick.integers(0, 3000))
        assert_matches_loop(lambda: np.random.default_rng(seed + 100),
                            probability, count)


# -- stream corruption -------------------------------------------------------

class TestCorruptionOracle:
    @pytest.mark.parametrize("spec", CORRUPTION_SPECS)
    def test_corrupt_records_matches_row_loop(self, spec):
        stream = make_stream(400, 4)
        out, touched = parse_fault_spec(spec, base_seed=9).corrupt_records(
            stream)
        expected = RefPlan(spec, 9).corrupt_records(stream)
        assert_stream_equal(out, touched, expected)

    @pytest.mark.parametrize("spec", CORRUPTION_SPECS)
    def test_streams_span_two_calls_and_replay(self, spec):
        """One plan over consecutive streams (a burst straddles them),
        then reset and replay."""
        parts = [make_stream(150, 1, span_s=0.6),
                 make_stream(150, 2, span_s=0.6, start_s=0.6)]
        plan, ref = parse_fault_spec(spec, base_seed=3), RefPlan(spec, 3)
        for _ in range(2):
            for stream in parts:
                out, touched = plan.corrupt_records(stream)
                assert_stream_equal(out, touched, ref.corrupt_records(stream))
            plan.reset()
            ref.reset()

    @pytest.mark.parametrize("spec", [
        "nan:prob=0", "nan:prob=1,cells=90", "agc_jump:prob=0",
        "agc_jump:prob=1", "nan:prob=1;agc_jump:prob=1",
        "interference:duty=0,burst=0.1",
    ])
    def test_probability_extremes(self, spec):
        stream = make_stream(300, 6)
        plan = parse_fault_spec(spec, base_seed=5)
        out, touched = plan.corrupt_records(stream)
        assert_stream_equal(out, touched, RefPlan(spec, 5).corrupt_records(
            stream))
        if "prob=1" in spec:
            assert np.array_equal(touched, stream.has_csi)
        else:
            assert out is stream and not touched.any()

    @pytest.mark.parametrize("spec", CORRUPTION_SPECS[:3])
    def test_hit_in_first_and_last_row(self, spec):
        """The two end rows of a stream inside bursts (the Bernoulli
        injectors hit both ends at p = 1, see above)."""
        probe = parse_fault_spec(spec, base_seed=2)
        grid = make_stream(2000, 0, span_s=3.0, no_csi_every=0)
        _, touched = probe.corrupt_records(grid)
        hits = np.flatnonzero(touched)
        first, last = int(hits[0]), int(hits[-1])
        rows = list(grid)[first:last + 1]
        stream = MeasurementStream(rows)
        out, touched = parse_fault_spec(spec, base_seed=2).corrupt_records(
            stream)
        assert touched[0] and touched[-1]
        assert_stream_equal(out, touched, RefPlan(spec, 2).corrupt_records(
            stream))

    def test_rssi_only_stream(self):
        spec = CORRUPTION_SPECS[-1]
        rng = np.random.default_rng(3)
        stream = MeasurementStream.from_arrays(
            np.sort(rng.uniform(0.0, 2.0, 300)), rng.normal(-40, 1, (300, 3))
        )
        out, touched = parse_fault_spec(spec, base_seed=7).corrupt_records(
            stream)
        assert_stream_equal(out, touched, RefPlan(spec, 7).corrupt_records(
            stream))

    @pytest.mark.parametrize("spec", CORRUPTION_SPECS)
    def test_one_row_calls_match_per_record_hooks(self, spec):
        """The per-frame adapter: n one-row calls draw what the
        per-record hooks drew, as one n-row call does (above)."""
        stream = make_stream(250, 8)
        plan, ref = parse_fault_spec(spec, base_seed=1), RefPlan(spec, 1)
        changed_rows = 0
        for row in stream:
            new = plan.corrupt_measurement(row)
            csi, rssi, warped, changed = ref._corrupt_row(
                row.csi, row.rssi_dbm, row.timestamp_s)
            assert (new is not row) == changed
            assert bits_of(new.timestamp_s) == bits_of(warped)
            assert np.array_equal(bits_of(new.rssi_dbm), bits_of(rssi))
            if row.csi is None:
                assert new.csi is None
            else:
                assert np.array_equal(bits_of(new.csi), bits_of(csi))
            changed_rows += changed
        assert changed_rows


class TestInterferenceAfterNan:
    def test_earlier_nan_cells_do_not_spread(self):
        """Interference on a row an earlier clause poisoned scales its
        noise by the row's finite cells: the row keeps its good cells."""
        stream = make_stream(400, 11, no_csi_every=0)
        nan_only = FaultPlan((NanCorruption(0.2, cells=3, seed=1),))
        _, poisoned = nan_only.corrupt_records(stream)
        both = FaultPlan((NanCorruption(0.2, cells=3, seed=1),
                          InterferenceBurst(0.5, 0.3, seed=2)))
        out, _ = both.corrupt_records(stream)
        noisy = FaultPlan((InterferenceBurst(0.5, 0.3, seed=2),))
        _, hit = noisy.corrupt_records(stream)
        assert (poisoned & hit).sum() > 10
        bad = (~np.isfinite(out.csi)).reshape(len(out), -1).sum(axis=1)
        assert bad[poisoned].tolist() == [3] * int(poisoned.sum())
        assert not bad[~poisoned].any()
