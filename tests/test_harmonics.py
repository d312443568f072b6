"""Spherical-harmonic and coupling-tensor oracles.

The rotation matrices for each degree are never constructed by the library,
so the tests fit them from data (least squares over many directions) and then
verify the fitted matrix predicts held-out directions exactly. Orthonormality
is checked with a Gauss-Legendre x trapezoid product grid, which integrates
polynomials of these degrees exactly.

The library couples degrees in closed form. The Racah construction of the
Clebsch–Gordan coefficients below, conjugated into the real basis, is the
oracle for its two constant families and for `TensorProductLayer`.
"""

import math

import numpy as np
import pytest

from crysfuse.checks import random_rotation
from crysfuse.harmonics import L_MAX_SUPPORTED, spherical_harmonics
from crysfuse.nn import ParamStore
from crysfuse.rng import stream
from crysfuse.so3 import TensorProductLayer
from crysfuse.tensor import Tensor

C0 = 0.5 / math.sqrt(math.pi)          # 0.28209479...
C1 = math.sqrt(3.0 / (4.0 * math.pi))  # 0.48860251...


def _f(n: int) -> int:
    if n < 0:
        raise ValueError("negative factorial")
    return math.factorial(n)


def clebsch_gordan(l1: int, l2: int, l3: int) -> np.ndarray:
    """Complex-basis coefficients <l1 m1 l2 m2 | l3 m3>, shape (2l1+1, 2l2+1, 2l3+1)."""
    out = np.zeros((2 * l1 + 1, 2 * l2 + 1, 2 * l3 + 1))
    if not abs(l1 - l2) <= l3 <= l1 + l2:
        return out
    pref_l = math.sqrt(
        (2 * l3 + 1)
        * _f(l3 + l1 - l2) * _f(l3 - l1 + l2) * _f(l1 + l2 - l3)
        / _f(l1 + l2 + l3 + 1))
    for m1 in range(-l1, l1 + 1):
        for m2 in range(-l2, l2 + 1):
            m3 = m1 + m2
            if abs(m3) > l3:
                continue
            pref_m = math.sqrt(
                _f(l3 + m3) * _f(l3 - m3)
                * _f(l1 - m1) * _f(l1 + m1)
                * _f(l2 - m2) * _f(l2 + m2))
            total = 0.0
            k_lo = max(0, l2 - l3 - m1, l1 - l3 + m2)
            k_hi = min(l1 + l2 - l3, l1 - m1, l2 + m2)
            for k in range(k_lo, k_hi + 1):
                total += (-1.0) ** k / (
                    _f(k) * _f(l1 + l2 - l3 - k) * _f(l1 - m1 - k)
                    * _f(l2 + m2 - k) * _f(l3 - l2 + m1 + k)
                    * _f(l3 - l1 - m2 + k))
            out[m1 + l1, m2 + l2, m3 + l3] = pref_l * pref_m * total
    return out


def complex_to_real(l: int) -> np.ndarray:
    """Unitary U with real_harmonic[m] = sum_mu U[m, mu] * complex_harmonic[mu]."""
    u = np.zeros((2 * l + 1, 2 * l + 1), dtype=complex)
    u[l, l] = 1.0
    inv_sqrt2 = 1.0 / math.sqrt(2.0)
    for m in range(1, l + 1):
        sign = (-1.0) ** m
        u[l + m, l - m] = inv_sqrt2
        u[l + m, l + m] = sign * inv_sqrt2
        u[l - m, l - m] = 1j * inv_sqrt2
        u[l - m, l + m] = -1j * sign * inv_sqrt2
    return u


def real_coupling(l1: int, l2: int, l3: int) -> np.ndarray:
    """Coupling tensor for products of real harmonics, shape as clebsch_gordan.

    Contracting two real-basis blocks with this tensor yields a block that
    again rotates as degree l3. Depending on the parity of l1+l2+l3 the
    complex-basis combination is purely real or purely imaginary; the nonzero
    part is returned.
    """
    if not abs(l1 - l2) <= l3 <= l1 + l2:
        raise ValueError(f"forbidden coupling {l1} x {l2} -> {l3}")
    cg = clebsch_gordan(l1, l2, l3)
    u1 = complex_to_real(l1)
    u2 = complex_to_real(l2)
    u3 = complex_to_real(l3)
    full = np.einsum("ai,bj,ck,ijk->abc", u1, u2, u3.conj(), cg.astype(complex))
    if (l1 + l2 + l3) % 2 == 0:
        out, rest = full.real, full.imag
    else:
        out, rest = full.imag, full.real
    assert np.max(np.abs(rest)) <= 1e-12, (l1, l2, l3)
    return out


def unit_vectors(gen, n):
    v = gen.normal(size=(n, 3))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def fit_degree_rotation(l, rot, gen):
    """Least-squares Wigner matrix for degree l: Y_l(R v) = Y_l(v) @ D.T."""
    v = unit_vectors(gen, 40 + 10 * l)
    a = spherical_harmonics(v, l)[l]
    b = spherical_harmonics(v @ rot.T, l)[l]
    d_t, *_ = np.linalg.lstsq(a, b, rcond=None)
    return d_t.T


class TestClosedFormValues:

    def test_degree_zero_is_constant(self):
        out = spherical_harmonics(np.array([[0.3, -1.2, 0.5]]), 0)
        assert len(out) == 1
        assert out[0][0, 0] == pytest.approx(0.28209479177, abs=1e-10)

    def test_degree_one_component_order_is_y_z_x(self):
        axes = np.eye(3)
        y1 = spherical_harmonics(axes, 1)[1]
        assert np.allclose(y1[0], [0, 0, C1])   # +x direction -> x slot last
        assert np.allclose(y1[1], [C1, 0, 0])   # +y direction -> first slot
        assert np.allclose(y1[2], [0, C1, 0])   # +z direction -> middle slot

    def test_degree_two_at_pole(self):
        y2 = spherical_harmonics(np.array([[0.0, 0.0, 2.0]]), 2)[2]
        expect = np.zeros(5)
        expect[2] = 0.5 * math.sqrt(5.0 / math.pi)
        assert np.allclose(y2[0], expect, atol=1e-14)

    def test_norm_invariance(self):
        # only the direction matters
        v = np.array([[1.0, 2.0, -0.5]])
        a = spherical_harmonics(v, 3)
        b = spherical_harmonics(7.5 * v, 3)
        for l in range(4):
            assert np.allclose(a[l], b[l], atol=1e-14)

    def test_parity(self):
        gen = stream(5, "parity")
        v = unit_vectors(gen, 10)
        plus = spherical_harmonics(v, 3)
        minus = spherical_harmonics(-v, 3)
        for l in range(4):
            assert np.allclose(minus[l], (-1.0) ** l * plus[l], atol=1e-14)

    def test_input_validation(self):
        with pytest.raises(ValueError, match="l_max"):
            spherical_harmonics(np.eye(3), L_MAX_SUPPORTED + 1)
        with pytest.raises(ValueError, match="zero vector"):
            spherical_harmonics(np.zeros((1, 3)), 1)
        with pytest.raises(ValueError, match="shape"):
            spherical_harmonics(np.zeros((3,)), 1)


class TestOrthonormality:
    """Exact quadrature: Gauss-Legendre in cos(theta), trapezoid in phi."""

    def test_unit_norm_and_orthogonality(self):
        z_nodes, z_weights = np.polynomial.legendre.leggauss(10)
        n_phi = 16
        phi = 2 * np.pi * np.arange(n_phi) / n_phi
        zz, pp = np.meshgrid(z_nodes, phi, indexing="ij")
        s = np.sqrt(1 - zz ** 2)
        pts = np.stack([s * np.cos(pp), s * np.sin(pp), zz], axis=-1).reshape(-1, 3)
        w = np.broadcast_to(z_weights[:, None] * (2 * np.pi / n_phi),
                            zz.shape).ravel()
        ys = spherical_harmonics(pts, 3)
        stacked = np.concatenate(ys, axis=1)  # (M, 16)
        gram = stacked.T @ (stacked * w[:, None])
        assert np.max(np.abs(gram - np.eye(16))) < 1e-12


class TestRotationProperty:

    @pytest.mark.parametrize("l", [1, 2, 3])
    def test_each_degree_rotates_linearly(self, l):
        gen = stream(5, f"rot/{l}")
        for _ in range(3):
            rot = random_rotation(gen)
            d = fit_degree_rotation(l, rot, gen)
            # the fitted matrix must be orthogonal...
            assert np.max(np.abs(d @ d.T - np.eye(2 * l + 1))) < 1e-10
            # ...and must predict held-out directions
            v = unit_vectors(gen, 25)
            got = spherical_harmonics(v @ rot.T, l)[l]
            expect = spherical_harmonics(v, l)[l] @ d.T
            assert np.max(np.abs(got - expect)) < 1e-10

    def test_degree_one_matrix_is_permuted_rotation(self):
        gen = stream(5, "rot/d1")
        rot = random_rotation(gen)
        d = fit_degree_rotation(1, rot, gen)
        perm = [1, 2, 0]  # (y, z, x) component order
        assert np.allclose(d, rot[np.ix_(perm, perm)], atol=1e-12)


class TestCoupling:

    @pytest.mark.parametrize("l1,l2,l3", [
        (1, 1, 0), (1, 1, 1), (1, 1, 2), (2, 1, 1), (2, 2, 2), (3, 2, 1)])
    def test_orthogonality_sum_rule(self, l1, l2, l3):
        c = real_coupling(l1, l2, l3)
        assert c.shape == (2 * l1 + 1, 2 * l2 + 1, 2 * l3 + 1)
        flat = c.reshape(-1, 2 * l3 + 1)
        assert np.max(np.abs(flat.T @ flat - np.eye(2 * l3 + 1))) < 1e-12

    def test_forbidden_triangle_raises(self):
        with pytest.raises(ValueError, match="forbidden"):
            real_coupling(1, 1, 3)
        with pytest.raises(ValueError, match="forbidden"):
            real_coupling(0, 0, 1)

    def test_complex_cg_special_value(self):
        # <1 0 1 0 | 2 0> = sqrt(2/3)
        cg = clebsch_gordan(1, 1, 2)
        assert cg[1, 1, 2] == pytest.approx(math.sqrt(2.0 / 3.0), abs=1e-14)

    def test_unitary_change_of_basis(self):
        for l in range(4):
            u = complex_to_real(l)
            assert np.max(np.abs(u @ u.conj().T - np.eye(2 * l + 1))) < 1e-14

    @pytest.mark.parametrize("l1,l2,l3", [(1, 1, 1), (1, 1, 2), (2, 1, 1)])
    def test_coupled_products_rotate_as_target_degree(self, l1, l2, l3):
        gen = stream(5, f"couple/{l1}{l2}{l3}")
        rot = random_rotation(gen)
        c = real_coupling(l1, l2, l3)
        d3 = fit_degree_rotation(l3, rot, gen)
        v = unit_vectors(gen, 30)
        w = unit_vectors(gen, 30)

        def coupled(vv, ww):
            a = spherical_harmonics(vv, l1)[l1]
            b = spherical_harmonics(ww, l2)[l2]
            return np.einsum("ea,eb,abc->ec", a, b, c)

        got = coupled(v @ rot.T, w @ rot.T)
        expect = coupled(v, w) @ d3.T
        assert np.max(np.abs(got - expect)) < 3e-13

    @pytest.mark.parametrize("l", range(L_MAX_SUPPORTED + 1))
    def test_closed_form_constants(self, l):
        # (0, l, l) is I and (l, l, 0) is c_l I, the constants the layer uses
        eye = np.eye(2 * l + 1, dtype=bool)
        c_l = TensorProductLayer(ParamStore(0), "tp", channels=1, num_rbf=2,
                                 l_max=l).contract_coeffs[l]
        assert c_l == (-1.0) ** l / math.sqrt(2 * l + 1)
        for coupling, diag in ((real_coupling(0, l, l)[0], 1.0),
                               (real_coupling(l, l, 0)[:, :, 0], c_l)):
            assert np.max(np.abs(coupling[eye] - diag)) <= 1e-15
            assert np.all(coupling[~eye] == 0.0)


def cg_tensor_products(h0, w1, w2, sh, src, dst):
    """Both rounds by direct contraction with the real coupling tensors:
    layer-1 blocks {l: (N, ch, 2l+1)} and the (N, ch) contracted scalars."""
    n = len(h0)
    deg = np.bincount(src, minlength=n).astype(float)

    def mean_in(msg):
        out = np.zeros((n,) + msg.shape[1:])
        np.add.at(out, src, msg)
        return out / deg.reshape((n,) + (1,) * (msg.ndim - 1))

    layer1 = {}
    for l, y in enumerate(sh):
        msg = np.einsum("eci,ef,ifo->eco", h0[dst][:, :, None], y,
                        real_coupling(0, l, l)) * w1[:, l, :, None]
        layer1[l] = mean_in(msg)
    layer1[0] = layer1[0] + h0[:, :, None]
    msg = sum(np.einsum("eci,ef,ifo->eco", layer1[l][dst], y,
                        real_coupling(l, l, 0))[:, :, 0] * w2[:, l, :]
              for l, y in enumerate(sh))
    return layer1, mean_in(msg) + layer1[0][:, :, 0]


class TestClosedFormLayer:
    """`TensorProductLayer` at l_max = 3 against the Clebsch–Gordan oracle."""

    L_MAX, CH, RBF = 3, 3, 4
    # 5 nodes, 9 edges; each node averages over 1 to 3 of them
    SRC = np.array([0, 0, 1, 1, 2, 2, 2, 3, 4])
    DST = np.array([1, 2, 0, 3, 0, 1, 4, 2, 3])

    def setup_method(self):
        gen = stream(7, "tp/closed-form")
        self.layer = TensorProductLayer(ParamStore(7), "tp", channels=self.CH,
                                        num_rbf=self.RBF, l_max=self.L_MAX)
        self.h0 = Tensor(gen.normal(size=(5, self.CH)), requires_grad=True)
        self.rbf = gen.uniform(size=(len(self.SRC), self.RBF))
        self.sh = spherical_harmonics(gen.normal(size=(len(self.SRC), 3)),
                                      self.L_MAX)
        self.probes = [gen.normal(size=(5, self.CH, 2 * l + 1))
                       for l in range(self.L_MAX + 1)]
        self.probe2 = gen.normal(size=(5, self.CH))

    def run(self):
        return self.layer(self.h0, self.sh, self.rbf, self.SRC, self.DST)

    def test_forward_matches_the_oracle(self):
        layer1, h2 = self.run()
        e, d = len(self.SRC), self.L_MAX + 1
        w1 = self.layer.expand_weights(Tensor(self.rbf)).data.reshape(e, d, -1)
        w2 = self.layer.contract_weights(Tensor(self.rbf)).data.reshape(e, d, -1)
        want1, want2 = cg_tensor_products(self.h0.data, w1, w2, self.sh,
                                          self.SRC, self.DST)
        assert sorted(layer1) == list(range(d))
        for l in range(d):
            np.testing.assert_allclose(layer1[l].data, want1[l], rtol=1e-13)
        np.testing.assert_allclose(h2.data, want2, rtol=1e-13)

    def test_gradients_match_central_differences(self):
        def loss():
            layer1, h2 = self.run()
            total = (h2 * Tensor(self.probe2)).sum()
            for l, probe in enumerate(self.probes):
                total = total + (layer1[l] * Tensor(probe)).sum()
            return total

        leaves = [self.h0]
        for lin in (self.layer.expand_weights, self.layer.contract_weights):
            leaves += [lin.weight, lin.bias]
        loss().backward()
        h = 1e-6
        for t in leaves:
            flat = t.data.ravel()
            fd = np.zeros_like(flat)
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + h
                up = float(loss().data)
                flat[i] = orig - h
                down = float(loss().data)
                flat[i] = orig
                fd[i] = (up - down) / (2 * h)
            np.testing.assert_allclose(t.grad.ravel(), fd, rtol=1e-6, atol=1e-8)
