"""Dirty-flag caches of the interference model and medium.

The loss table (burst-free PER per on-air length and channel) and
``usable_channels`` results are memoized against what they were built
from; these tests pin the invalidation contract: tuple replacement and dict
growth are caught automatically, in-place value overwrites need an explicit
:meth:`InterferenceModel.invalidate`.  The hypothesis cases recompute the
loss formula afresh and require the table, the burst path and
:meth:`BleMedium.packet_lost` to agree with it.
"""

import itertools
import random

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.phy.medium import BleMedium, InterferenceBurst, InterferenceModel
from repro.sim.kernel import Simulator


def _model(**kwargs) -> InterferenceModel:
    return InterferenceModel(base_ber=0.0, **kwargs)


def test_jammed_tuple_replacement_invalidates_addend():
    model = _model(jammed_channels=(22,))
    assert model.packet_error_rate(22, 50, 0) == 1.0
    assert model.packet_error_rate(5, 50, 0) == 0.0
    model.jammed_channels = (5,)  # wholesale replacement, the repo idiom
    assert model.packet_error_rate(22, 50, 0) == 0.0
    assert model.packet_error_rate(5, 50, 0) == 1.0


def test_channel_per_key_addition_invalidates_addend():
    model = _model(channel_per={3: 0.25})
    assert model.packet_error_rate(3, 50, 0) == 0.25
    assert model.packet_error_rate(9, 50, 0) == 0.0
    model.channel_per[9] = 0.5  # new key changes the dict length stamp
    assert model.packet_error_rate(9, 50, 0) == 0.5


def test_in_place_value_overwrite_needs_explicit_invalidate():
    model = _model(channel_per={3: 0.25})
    assert model.packet_error_rate(3, 50, 0) == 0.25
    model.channel_per[3] = 0.75  # same key: invisible to the stamp
    assert model.packet_error_rate(3, 50, 0) == 0.25  # stale by contract
    model.invalidate()
    assert model.packet_error_rate(3, 50, 0) == 0.75


def test_bursts_stay_time_dependent_despite_cache():
    burst = InterferenceBurst(start_ns=100, end_ns=200, channels=(7,), per=0.5)
    model = _model(bursts=[burst])
    assert model.packet_error_rate(7, 50, 50) == 0.0
    assert model.packet_error_rate(7, 50, 150) == 0.5
    assert model.packet_error_rate(7, 50, 250) == 0.0


def test_usable_channels_memo_tracks_jammed_set():
    medium = BleMedium(Simulator(), random.Random(1), _model(jammed_channels=(22,)))
    channels = list(range(37))
    first = medium.usable_channels(channels)
    assert 22 not in first
    assert medium.usable_channels(channels) == first
    medium.interference.jammed_channels = (0, 1)
    second = medium.usable_channels(channels)
    assert 22 in second and 0 not in second and 1 not in second


def test_usable_channels_returns_fresh_lists():
    medium = BleMedium(Simulator(), random.Random(1), _model())
    a = medium.usable_channels(range(5))
    a.append(99)  # caller mutation must not poison the memo
    assert medium.usable_channels(range(5)) == [0, 1, 2, 3, 4]


# -- the loss table against the formula, evaluated afresh ----------------------


def formula(model, channel, nbytes, now_ns=0):
    """The loss model's PER, recomputed from the model's fields: the
    bit-error term plus the channel's addend, plus each active burst,
    clamped once."""
    if channel in model.jammed_channels:
        per = float("inf")
    else:
        per = model.channel_per.get(channel, 0.0)
    per = 1.0 - (1.0 - model.base_ber) ** (8 * max(nbytes, 1)) + per
    for burst in model.bursts:
        if burst.start_ns <= now_ns < burst.end_ns and channel in burst.channels:
            per += burst.per
    return min(per, 1.0)


CHANNELS = st.integers(0, 39)
LENGTHS = st.integers(10, 261)
BERS = st.one_of(st.just(0.0), st.floats(0.0, 1e-2), st.floats(0.0, 1.0))
PERS = st.floats(0.0, 2.0)
JAMMED = st.frozensets(CHANNELS, max_size=5).map(lambda s: tuple(sorted(s)))
CHANNEL_PER = st.dictionaries(CHANNELS, PERS, max_size=8)
LOOKUPS = st.lists(st.tuples(CHANNELS, LENGTHS), min_size=1, max_size=30)
BURSTS = st.lists(
    st.builds(
        InterferenceBurst,
        start_ns=st.integers(0, 3),
        end_ns=st.integers(0, 3),
        channels=JAMMED,
        per=PERS,
    ),
    max_size=3,
)


def check_lookups(model, lookups, now_ns=0):
    # Twice: the second pass reads what the first one filled in.
    for _ in range(2):
        for channel, nbytes in lookups:
            expected = formula(model, channel, nbytes, now_ns)
            assert model.packet_error_rate(channel, nbytes, now_ns) == expected


def every_invalidation(model, new_jammed, new_channel, new_per, overwrite):
    """Yield once as built, then after each change the contract covers: a
    jammed-tuple replacement, a new ``channel_per`` key, and an in-place
    overwrite of every key followed by :meth:`invalidate`."""
    yield
    model.jammed_channels = new_jammed
    yield
    model.channel_per[new_channel] = new_per
    yield
    for channel in model.channel_per:
        model.channel_per[channel] = overwrite
    model.invalidate()
    yield


CHANGES = dict(
    new_jammed=JAMMED, new_channel=CHANNELS, new_per=PERS, overwrite=PERS
)


@settings(max_examples=200, deadline=None)
@given(
    base_ber=BERS,
    channel_per=CHANNEL_PER,
    jammed=JAMMED,
    lookups=LOOKUPS,
    **CHANGES,
)
def test_loss_table_is_the_formula_through_every_invalidation(
    base_ber, channel_per, jammed, lookups, new_jammed, new_channel, new_per,
    overwrite,
):
    assume(new_channel not in channel_per)
    model = InterferenceModel(
        base_ber=base_ber, channel_per=dict(channel_per), jammed_channels=jammed
    )
    for _ in every_invalidation(model, new_jammed, new_channel, new_per, overwrite):
        check_lookups(model, lookups)


@settings(max_examples=200, deadline=None)
@given(
    base_ber=BERS,
    channel_per=CHANNEL_PER,
    jammed=JAMMED,
    lookups=LOOKUPS,
    bursts=BURSTS,
    now_ns=st.integers(0, 3),
)
def test_bursts_add_to_the_formula_clamped_once(
    base_ber, channel_per, jammed, lookups, bursts, now_ns
):
    model = InterferenceModel(
        base_ber=base_ber, channel_per=channel_per, jammed_channels=jammed
    )
    check_lookups(model, lookups)  # fills the table first
    model.bursts.extend(bursts)
    check_lookups(model, lookups, now_ns)
    model.bursts.clear()
    check_lookups(model, lookups)


class RecordingRandom(random.Random):
    """A seeded stream that records every ``random()`` draw."""

    def __init__(self, seed):
        super().__init__(seed)
        self.draws = []

    def random(self):
        value = super().random()
        self.draws.append(value)
        return value


@settings(max_examples=200, deadline=None)
@given(
    base_ber=BERS,
    channel_per=CHANNEL_PER,
    jammed=JAMMED,
    lookups=LOOKUPS,
    bursts=BURSTS,
    seed=st.integers(0, 2**32 - 1),
    **CHANGES,
)
def test_packet_lost_draws_exactly_when_the_per_is_above_zero(
    base_ber, channel_per, jammed, lookups, bursts, seed, new_jammed,
    new_channel, new_per, overwrite,
):
    assume(new_channel not in channel_per)
    rng = RecordingRandom(seed)
    model = InterferenceModel(
        base_ber=base_ber, channel_per=dict(channel_per), jammed_channels=jammed
    )
    medium = BleMedium(Simulator(), rng, model)
    changes = every_invalidation(model, new_jammed, new_channel, new_per, overwrite)
    for phase in itertools.chain(changes, ["bursts"]):  # lazily, step by step
        if phase == "bursts":
            model.bursts.extend(bursts)
        for _ in range(2):
            for channel, nbytes in lookups:
                per = formula(model, channel, nbytes)
                drawn = len(rng.draws)
                lost = medium.packet_lost(channel, nbytes)
                if per > 0.0:
                    assert len(rng.draws) == drawn + 1
                    assert lost == (rng.draws[-1] < per)
                else:
                    assert len(rng.draws) == drawn
                    assert not lost
