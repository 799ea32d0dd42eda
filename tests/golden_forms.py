"""Golden normal forms of the classical determining equations of

    x'' + b x'(t-r) + c x + d x(t-r) + k x''(t-r) = 0

under the affine ansatz omega = beta(t), upsilon = gamma(t) x + rho(t),
keyed by the catalog ids the reduction assigns.  They are written out by
hand from the paper's derivation, independently of the splitting code, and
are the tests' oracle for it.
"""

from ndelie.symexpr import Coeff, Par, fn, normalize, num, substitute


def _beta(o=0, d=False):
    return Coeff("beta", d, o)


def _gamma(o=0, d=False):
    return Coeff("gamma", d, o)


def _rho(o=0, d=False):
    return Coeff("rho", d, o)


_b, _c, _d, _k = fn("b"), fn("c"), fn("d"), fn("k")
_w = fn("omega")
_w1, _w2, _w3 = (fn("omega", order=i) for i in (1, 2, 3))

GOLDEN = {
    "E-x": normalize(_gamma(2) + 2 * _beta(1) * _c
                     + _beta() * fn("c", order=1)),
    "E-x1": normalize(2 * _gamma(1) - _beta(2)),
    "E-x1-int": normalize(_gamma() - num(1) / 2 * (_beta(1) + Par("c1"))),
    "E-1": normalize(_rho(2) + _b * _rho(1, True) + _c * _rho()
                     + _d * _rho(0, True) + _k * _rho(2, True)),
    "E-x2r": normalize(_beta() * fn("k", order=1)),
    "E-xr": normalize(_k * _gamma(2) + 2 * _beta(1) * _d
                      + _beta() * fn("d", order=1) + _b * _gamma(1)),
    "E-x1r": normalize(_b * _beta(1) + _beta() * fn("b", order=1)),
    "E-x1r-int": normalize(_b * _beta() - Par("c3")),
    "E-omega-c": normalize(_w3 + 4 * _c * _w1 + 2 * fn("c", order=1) * _w),
    "E-omega-d": normalize(Par("c2") * _w3 + 2 * fn("d", order=1) * _w
                           + 4 * _d * _w1 + _b * _w2),
    "E-omega-b": normalize(_b * _w - Par("c3")),
    "E-upsilon": normalize(_gamma() - num(1) / 2 * (_w1 + Par("c1"))),
}


def beta_to_omega(e):
    """A beta-named form in the canonical system's omega naming."""
    return substitute(e, {fn("beta"): fn("omega")})
