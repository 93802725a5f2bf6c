"""The standard normal distribution function and its inverse, without SciPy.

Ports of the Cephes ``ndtr`` and ``ndtri`` (S. L. Moshier, *Methods and
Programs for Mathematical Functions*, 1989) as SciPy runs them: the same
coefficients, and the same operations in the same order, so each result
equals ``scipy.special``'s bit for bit.  ``ndtri`` is scalar pure Python.
``ndtr`` is vectorised: its polynomials run as in-place NumPy Horner steps,
multiply then add, and ``exp`` is the C library's through ``math.exp``,
which NumPy's SIMD ``exp`` differs from in the last ulp.
"""

from __future__ import annotations

import math

import numpy as np

__all__: list[str] = []

MAXLOG = 7.09782712893383996843e2  # log(2**1024); erfc(z) is taken as 0 once z^2 exceeds it
SQRTH = 7.07106781186547524401e-1  # sqrt(1/2)
S2PI = 2.50662827463100050242e0  # sqrt(2 pi)
EXPM2 = 0.13533528323661269189  # exp(-2)

# Coefficients from the highest power down; a monic table's leading 1.0 multiplies exactly.
# ndtri: y - 1/2 in [-3/8, 3/8]; then z = sqrt(-2 log y) in [2, 8) and [8, 64)
P0 = (-5.99633501014107895267e1, 9.80010754185999661536e1, -5.66762857469070293439e1,
      1.39312609387279679503e1, -1.23916583867381258016e0)
Q0 = (1.0, 1.95448858338141759834e0, 4.67627912898881538453e0, 8.63602421390890590575e1,
      -2.25462687854119370527e2, 2.00260212380060660359e2, -8.20372256168333339912e1,
      1.59056225126211695515e1, -1.18331621121330003142e0)
P1 = (4.05544892305962419923e0, 3.15251094599893866154e1, 5.71628192246421288162e1,
      4.40805073893200834700e1, 1.46849561928858024014e1, 2.18663306850790267539e0,
      -1.40256079171354495875e-1, -3.50424626827848203418e-2, -8.57456785154685413611e-4)
Q1 = (1.0, 1.57799883256466749731e1, 4.53907635128879210584e1, 4.13172038254672030440e1,
      1.50425385692907503408e1, 2.50464946208309415979e0, -1.42182922854787788574e-1,
      -3.80806407691578277194e-2, -9.33259480895457427372e-4)
P2 = (3.23774891776946035970e0, 6.91522889068984211695e0, 3.93881025292474443415e0,
      1.33303460815807542389e0, 2.01485389549179081538e-1, 1.23716634817820021358e-2,
      3.01581553508235416007e-4, 2.65806974686737550832e-6, 6.23974539184983293730e-9)
Q2 = (1.0, 6.02427039364742014255e0, 3.67983563856160859403e0, 1.37702099489081330271e0,
      2.16236993594496635890e-1, 1.34204006088543189037e-2, 3.28014464682127739104e-4,
      2.89247864745380683936e-6, 6.79019408009981274425e-9)

# ndtr: erf on |x| < 1 (T/U); erfc on [1, 8) (P/Q) and from 8 up (R/S)
T = (9.60497373987051638749e0, 9.00260197203842689217e1, 2.23200534594684319226e3,
     7.00332514112805075473e3, 5.55923013010394962768e4)
U = (1.0, 3.35617141647503099647e1, 5.21357949780152679795e2, 4.59432382970980127987e3,
     2.26290000613890934246e4, 4.92673942608635921086e4)
P = (2.46196981473530512524e-10, 5.64189564831068821977e-1, 7.46321056442269912687e0,
     4.86371970985681366614e1, 1.96520832956077098242e2, 5.26445194995477358631e2,
     9.34528527171957607540e2, 1.02755188689515710272e3, 5.57535335369399327526e2)
Q = (1.0, 1.32281951154744992508e1, 8.67072140885989742329e1, 3.54937778887819891062e2,
     9.75708501743205489753e2, 1.82390916687909736289e3, 2.24633760818710981792e3,
     1.65666309194161350182e3, 5.57535340817727675546e2)
R = (5.64189583547755073984e-1, 1.27536670759978104416e0, 5.01905042251180477414e0,
     6.16021097993053585195e0, 7.40974269950448939160e0, 2.97886665372100240670e0)
S = (1.0, 2.26052863220117276590e0, 9.39603524938001434673e0, 1.20489539808096656605e1,
     1.70814450747565897222e1, 9.60896809063285878198e0, 3.36907645100081516050e0)


def _polevl(x, coef):
    """coef[0] x^N + ... + coef[N] by Horner's rule, multiply then add; x a float or an array."""
    ans = x * coef[0]
    ans += coef[1]
    for c in coef[2:]:
        ans *= x
        ans += c
    return ans


def ndtri(y0: float) -> float:
    """The x with ndtr(x) = y0: -inf at 0, inf at 1, NaN outside [0, 1]."""
    y0 = float(y0)
    if y0 == 0.0:
        return -math.inf
    if y0 == 1.0:
        return math.inf
    if y0 < 0.0 or y0 > 1.0:
        return math.nan
    y, upper = y0, y0 > 1.0 - EXPM2
    if upper:
        y = 1.0 - y
    if y > EXPM2:
        y -= 0.5
        y2 = y * y
        return (y + y * (y2 * _polevl(y2, P0) / _polevl(y2, Q0))) * S2PI
    x = math.sqrt(-2.0 * math.log(y))
    x0 = x - math.log(x) / x
    z = 1.0 / x
    x1 = z * _polevl(z, P1) / _polevl(z, Q1) if x < 8.0 else z * _polevl(z, P2) / _polevl(z, Q2)
    return x0 - x1 if upper else -(x0 - x1)


def ndtr(a) -> np.ndarray:
    """The standard normal distribution function at each element of ``a``, as a float array.

    Per element, as in Cephes: with x = a sqrt(1/2), it is 1/2 + erf(x)/2 for |x| < sqrt(1/2),
    otherwise erfc(|x|)/2, taken from 1 for x > 0.  erfc(z) is 1 - erf(z) below 1,
    exp(-z^2) P(z)/Q(z) up to z^2 = MAXLOG and 0 beyond.  erf runs over every element, held
    at 1 where erfc takes over, and the branches are joined by exact sign and +-1 arithmetic:
    a masked select costs as much as all the polynomials.  The erfc tail runs over its own
    elements only, so no input overflows or warns.
    """
    shape = np.shape(a)
    a = np.asarray(a, dtype=float).reshape(-1)
    w = np.abs(a)
    w *= SQRTH  # |x|; x has a's sign, as no nonzero a underflows
    far = np.flatnonzero(w >= 1.0)
    tail = _erfc_tail(w[far])
    k = w >= SQRTH  # outside the centre, where erfc is read
    np.minimum(w, 1.0, out=w)
    w2 = w * w
    erf = _polevl(w2, T)
    erf *= w
    q = _polevl(w2, U)
    erf /= q  # erf(|x|) for |x| < 1
    h = np.subtract(k, erf, out=w2)
    np.abs(h, out=h)  # erf(|x|) in the centre, erfc(|x|) below 1 outside it
    h[far] = tail
    h *= 0.5
    np.copysign(h, a, out=h)
    # y = base + sign h: 1/2 + h in the centre; outside it 1 - h for x > 0, 0 + |h| for x < 0
    base = np.sign(a, out=erf)
    base *= k
    base *= 0.5
    base += 0.5
    sign = np.multiply(k, -2.0, out=q)
    sign += 1.0
    h *= sign
    y = np.add(base, h, out=base)
    np.copyto(y, np.nan, where=np.isnan(a))
    return y.reshape(shape)


def _erfc_tail(z: np.ndarray) -> np.ndarray:
    """erfc at each z >= 1: exp(-z^2) P(z)/Q(z), or 0 once z^2 > MAXLOG, where it underflows."""
    out = np.zeros_like(z)
    w = np.minimum(z, 27.0)  # 27^2 > MAXLOG, so no square here overflows
    live = np.flatnonzero(w * w <= MAXLOG)
    w = w[live]
    e = np.fromiter(map(math.exp, (-(w * w)).tolist()), float, len(w))
    for part, num, den in ((w < 8.0, P, Q), (w >= 8.0, R, S)):
        e[part] *= _polevl(w[part], num)
        e[part] /= _polevl(w[part], den)
    out[live] = e
    return out
