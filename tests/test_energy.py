"""Radio energy model: branch values, crossover continuity, linearity."""

import numpy as np
import pytest

from sinksim.energy import RadioParams, aggregation_energy, rx_energy, tx_energy
from sinksim.errors import ConfigurationError

P = RadioParams()
K = P.packet_bits


class TestTxEnergy:
    def test_zero_distance_is_electronics_only(self):
        assert tx_energy(P, K, 0.0) == pytest.approx(2.0e-4, rel=1e-12)

    def test_both_branches_agree_at_crossover(self):
        d0 = P.d0
        assert d0 == pytest.approx(87.7058, abs=1e-3)
        fs = P.e_elect * K + P.eps_fs * K * d0 * d0
        mp = P.e_elect * K + P.eps_mp * K * d0 * d0 * d0 * d0
        assert abs(fs - mp) <= 1e-18
        assert tx_energy(P, K, d0) == pytest.approx(5.0769e-4, rel=1e-4)

    def test_multipath_branch_at_100m(self):
        # 2.0e-4 electronics + 0.0013e-12 * 4000 * 1e8 amplifier
        assert tx_energy(P, K, 100.0) == pytest.approx(7.2e-4, rel=1e-12)

    def test_monotone_in_distance(self):
        ds = [0.0, 1.0, 10.0, 50.0, 87.0, P.d0, 88.0, 100.0, 141.4]
        costs = [tx_energy(P, K, d) for d in ds]
        assert all(a <= b for a, b in zip(costs, costs[1:]))

    def test_linear_in_bits(self):
        for d in (0.0, 30.0, 120.0):
            assert tx_energy(P, 8000, d) == pytest.approx(2 * tx_energy(P, 4000, d), rel=1e-12)

    def test_tx_at_least_rx(self):
        for d in (0.0, 5.0, 87.7, 130.0):
            assert tx_energy(P, K, d) >= rx_energy(P, K)

    def test_negative_distance_rejected(self):
        with pytest.raises(ValueError):
            tx_energy(P, K, -1.0)

    def test_vectorized_matches_scalar_bitwise(self):
        rng = np.random.default_rng(7)
        other = RadioParams(e_elect=3e-8, eps_fs=7e-12, eps_mp=2.5e-15, packet_bits=1000)
        for p in (P, other):
            k = p.packet_bits
            edges = [0.0, p.d0, np.nextafter(p.d0, 0.0), np.nextafter(p.d0, np.inf), 100.0]
            d = np.concatenate([rng.uniform(0, 2 * p.d0, 500), edges])
            vec = tx_energy(p, k, d)
            for i, di in enumerate(d.tolist()):
                assert vec[i].tobytes() == np.float64(tx_energy(p, k, di)).tobytes()


class TestRxEnergy:
    def test_packet(self):
        assert rx_energy(P, 4000) == pytest.approx(2.0e-4, rel=1e-12)

    def test_zero_bits(self):
        assert rx_energy(P, 0) == 0.0

    def test_linearity(self):
        assert rx_energy(RadioParams(e_elect=1e-9), 1000) == pytest.approx(1.0e-6, rel=1e-12)


class TestAggregationEnergy:
    def test_one_message(self):
        assert aggregation_energy(P, 4000, 1) == pytest.approx(2.0e-5, rel=1e-12)

    def test_zero_messages(self):
        assert aggregation_energy(P, 4000, 0) == 0.0

    def test_linearity_in_messages(self):
        assert aggregation_energy(P, 4000, 10) == pytest.approx(2.0e-4, rel=1e-12)

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            aggregation_energy(P, 4000, -1)


class TestRadioParams:
    def test_crossover_positive_finite(self):
        import math
        assert math.isfinite(P.d0) and P.d0 > 0

    def test_nonpositive_constants_rejected(self):
        with pytest.raises(ConfigurationError):
            RadioParams(e_elect=0.0)
        with pytest.raises(ConfigurationError):
            RadioParams(eps_mp=-1e-15)
