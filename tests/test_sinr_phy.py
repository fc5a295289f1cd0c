"""Tests for the geometry-aware SINR PHY (:class:`repro.radio.SinrPhy`).

Four layers:

- **constructor/bind validation**: every physical parameter must be
  positive; binding demands deployment positions;
- **edge-case slots**: a lone transmitter always decodes at default
  parameters, coincident nodes stay finite through the ``min_dist``
  clamp, and a distant non-neighbor transmitter can drown a reception
  the collision model would deliver (global interference);
- **threshold monotonicity** (Hypothesis): on random geometry and a
  random transmission set, raising the SINR threshold never turns a
  failed reception into a success — with ``threshold >= 1`` at most one
  signal per listener can ever clear the bar;
- **registry + composition**: ``make_phy``/``phy_names`` plumbing, and
  the full protocol over the SINR PHY.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import run_coloring
from repro.graphs import random_udg
from repro.graphs.udg import udg_from_points
from repro.radio import RadioSimulator, SinrPhy, make_phy, phy_names
from repro.radio.channel import CollisionPhy, MultiChannelPhy

from .conftest import BeaconNode, ListenerNode


def sinr_world(pts, radius, *, beacons, seed=1, **phy_kwargs):
    """A no-feedback SINR world over explicit coordinates."""
    dep = udg_from_points(np.asarray(pts, dtype=float), radius=radius)
    nodes = [
        BeaconNode(v, p=1.0) if v in set(beacons) else ListenerNode(v)
        for v in range(dep.n)
    ]
    sim = RadioSimulator(
        dep,
        nodes,
        np.zeros(dep.n, dtype=np.int64),
        np.random.default_rng(seed),
        phy=SinrPhy(**phy_kwargs),
    )
    return sim, nodes


class TestValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"alpha": 0.0},
            {"noise": -0.1},
            {"threshold": 0.0},
            {"power": 0.0},
            {"min_dist": 0.0},
        ],
    )
    def test_rejects_nonpositive_parameters(self, kwargs):
        with pytest.raises(ValueError):
            SinrPhy(**kwargs)

    def test_bind_requires_positions(self):
        from repro.graphs import path_deployment

        dep = path_deployment(3)  # combinatorial: no coordinates
        assert dep.positions is None
        nodes = [ListenerNode(v) for v in range(3)]
        with pytest.raises(ValueError, match="positions"):
            RadioSimulator(
                dep,
                nodes,
                np.zeros(3, dtype=np.int64),
                np.random.default_rng(0),
                phy=SinrPhy(),
            )


class TestEdgeCaseSlots:
    def test_single_transmitter_decodes(self):
        """No interference: SINR = g / noise clears any sane threshold."""
        sim, nodes = sinr_world(
            [[0.0, 0.0], [0.5, 0.0]], radius=1.0, beacons={0}
        )
        sim.step()
        assert len(nodes[1].received) == 1

    def test_coincident_positions_stay_finite(self):
        """Two nodes at one point: the min_dist clamp keeps the gain
        finite, and the near-infinite signal decodes over the noise."""
        sim, nodes = sinr_world(
            [[0.3, 0.3], [0.3, 0.3]], radius=1.0, beacons={0}
        )
        sim.step()
        assert len(nodes[1].received) == 1

    def test_coincident_transmitters_collide(self):
        """Two transmitters on top of each other reach a listener with
        exactly equal power — neither can clear a threshold >= 1."""
        sim, nodes = sinr_world(
            [[0.0, 0.0], [0.0, 0.0], [0.4, 0.0]],
            radius=1.0,
            beacons={0, 1},
        )
        sim.step()
        assert nodes[2].received == []
        assert sim.trace.collision_count[2] == 1

    def test_distant_transmitter_raises_noise_floor(self):
        """Global interference: a transmitter outside the listener's
        graph neighborhood can still drown an in-range transmission
        (the collision model would have delivered it)."""
        pts = [[0.0, 0.0], [0.9, 0.0], [1.8, 0.0]]
        # radius 1.0: 0-1 and 1-2 adjacent, 0-2 not.
        quiet, _ = sinr_world(pts[:2], radius=1.0, beacons={0})
        quiet.step()
        noisy, nodes = sinr_world(pts, radius=1.0, beacons={0, 2})
        noisy.step()
        # Alone, node 0's signal decodes at node 1 ...
        assert len(quiet.nodes[1].received) == 1
        # ... but with node 2 on the air at equal distance, the SINR at
        # node 1 is ~1 < threshold=2 for both signals: nothing decodes.
        assert nodes[1].received == []

    def test_capture_effect_delivers_dominant_signal(self):
        """Two touching neighbors, one much closer: the strong signal
        clears the threshold against the weak one and decodes."""
        sim, nodes = sinr_world(
            [[0.0, 0.0], [0.05, 0.0], [0.95, 0.0]],
            radius=1.0,
            beacons={1, 2},
        )
        sim.step()
        [(_, msg)] = nodes[0].received
        assert msg.sender == 1

    def test_consumes_no_randomness(self):
        """Geometry decides everything: the PHY draws nothing from the
        channel streams."""
        sim, _ = sinr_world(
            [[0.0, 0.0], [0.5, 0.0], [0.5, 0.5]], radius=1.0, beacons={0}
        )
        for _ in range(5):
            sim.step()
        assert sim.core.loss_draws == 0


@st.composite
def sinr_slots(draw):
    """Random geometry + transmitter set + an ordered threshold pair."""
    n = draw(st.integers(min_value=2, max_value=8))
    coords = draw(
        st.lists(
            st.tuples(
                st.floats(0.0, 3.0, allow_nan=False),
                st.floats(0.0, 3.0, allow_nan=False),
            ),
            min_size=n,
            max_size=n,
        )
    )
    beacons = draw(
        st.sets(st.integers(0, n - 1), min_size=1, max_size=n - 1)
    )
    t_lo = draw(st.floats(1.0, 20.0, allow_nan=False))
    t_hi = draw(st.floats(1.0, 20.0, allow_nan=False).filter(lambda t: t >= 1.0))
    return coords, beacons, min(t_lo, t_hi), max(t_lo, t_hi)


class TestThresholdMonotonicity:
    @settings(max_examples=60, deadline=None)
    @given(sinr_slots())
    def test_raising_threshold_never_creates_receptions(self, case):
        coords, beacons, t_lo, t_hi = case
        received = {}
        for t in (t_lo, t_hi):
            sim, nodes = sinr_world(
                coords, radius=1.5, beacons=beacons, threshold=t
            )
            sim.step()
            received[t] = {
                v: [m.sender for _, m in nodes[v].received]
                for v in range(len(nodes))
                if nodes[v].received
            }
        # Every reception at the high threshold also happened (from the
        # same sender) at the low one — and never more than one per
        # listener with threshold >= 1.
        for v, senders in received[t_hi].items():
            assert len(senders) == 1
            assert received[t_lo].get(v) == senders


class TestRegistryAndComposition:
    def test_phy_names_and_factory(self):
        assert phy_names() == ("collision", "multichannel", "sinr")
        assert isinstance(make_phy("collision", 1), CollisionPhy)
        assert isinstance(make_phy("multichannel", 3), MultiChannelPhy)
        assert make_phy("multichannel", 3).channels == 3
        assert isinstance(make_phy("sinr", 1), SinrPhy)

    def test_unknown_phy_is_value_error_naming_choices(self):
        with pytest.raises(ValueError, match="collision.*multichannel.*sinr"):
            make_phy("bogus")

    def test_full_protocol_runs_over_sinr(self):
        dep = random_udg(30, expected_degree=6.0, seed=17)
        res = run_coloring(dep, seed=17, phy="sinr")
        assert res.completed

    def test_channels_conflict_with_sinr_by_name(self):
        dep = random_udg(10, expected_degree=4.0, seed=1)
        with pytest.raises(ValueError, match="multichannel"):
            run_coloring(dep, seed=1, phy="sinr", channels=2)
