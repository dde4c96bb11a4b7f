"""Independent routes for the closed-form sl2 actions of slvir.modules.

Each route multiplies in U(sl2) by PBW straightening (``nf_multiply``) and
then substitutes the module's defining relations; none of them reads a
closed form of the family it checks.  The tests compare the memoised rows
of W, X, Xbar, Verma and LowVerma against these.
"""

from slvir.modules import ModVec

from closed_forms import fe_scalar, sum_terms
from slvir.pbw import UEnvElt, nf_multiply


def _times_monomial(x, mono) -> dict:
    """The PBW normal form of x f^a h^b e^c, as monomial -> Scalar."""
    return nf_multiply(UEnvElt.from_sl2(x), UEnvElt.monomial(mono)).terms


def w_act_key(eta, x, key) -> dict:
    """x on f^a h^b x in W(eta): multiply, then e -> eta on the right."""
    a, b = key
    return sum_terms(((a2, b2), coeff * eta**c2)
                     for (a2, b2, c2), coeff in _times_monomial(x, (a, b, 0)).items())


def x_act_key(xi, x, key) -> dict:
    """x on f^k e^l x in X(xi): multiply, then h -> xi + 2l on e^l x."""
    k, l = key
    return sum_terms(((a2, c2), coeff * (xi + 2 * c2) ** b2)
                     for (a2, b2, c2), coeff in _times_monomial(x, (k, 0, l)).items())


def pair_act_key(module, x, key) -> dict:
    """The PBW route on a key of W or X."""
    if module.family == "W":
        return w_act_key(module.eta, x, key)
    return x_act_key(module.xi, x, key)


def verma_act_generic(verma, x, vec: ModVec) -> ModVec:
    """Multiply in U(sl2), then e -> 0 and h -> delta on the highest weight vector."""
    pairs = []
    for k, coeff in vec.terms.items():
        pairs += [(a2, coeff * c * verma.delta**b2)
                  for (a2, b2, c2), c in _times_monomial(x, (k, 0, 0)).items() if c2 == 0]
    return ModVec(verma, sum_terms(pairs))


def reduce_x_terms(xbar, terms: dict) -> dict:
    """Project X(xi) coordinates onto the basis of the quotient Xbar(xi, tau)."""
    pairs = []
    for (k, l), coeff in terms.items():
        while k >= 1 and l >= 1:
            coeff = coeff * fe_scalar(xbar, l)
            k -= 1
            l -= 1
        pairs.append((("e", l) if k == 0 else ("f", k), coeff))
    return sum_terms(pairs)


def xbar_act_generic(xbar, x, vec: ModVec) -> ModVec:
    """Act in X(xi) by the PBW route on the lift f^n x or e^n x of each key,
    then reduce to the quotient basis."""
    return ModVec(xbar, sum_terms(
        (k2, coeff * c2) for (side, n), coeff in vec.terms.items()
        for k2, c2 in reduce_x_terms(
            xbar, x_act_key(xbar.xi, x, (0, n) if side == "e" else (n, 0))).items()))
