"""Normalizers of G0(tau), the quotient groups they produce, and the
divisor-removal chain that explains them.

For each level tau there is an integer h(tau) such that the normalizer of
G0(tau) inside the full group is exactly G0(tau/h).  The quotient
G0(tau/h)/G0(tau) is the additive group of O/h, whose table and
classification this package gives exactly, at any tau.
"""

from hecke5 import (
    GMatrix,
    ONE,
    RingElt,
    ZERO,
    h_of,
    is_g5_elementary,
    normalizer_of,
    normalizes,
    quotient_table,
    strongly_elementary,
    supergroup_chain,
)


def main() -> None:
    print("== normalizers ==")
    for n in (4, 9, 12, 16, 48):
        res = normalizer_of(RingElt(n, 0))
        print(f"N(G0({n})) = G0({res.modulus}) with h = {res.h},"
              f" quotient {res.quotient}")

    print("\n== deriving the normalizer level from witness fractions ==")
    report = supergroup_chain(RingElt(12, 0))
    print(f"input tau = {report.input};"
          f" half-power containment gives G0({report.half_power_bound})")
    for step in report.steps:
        gcds = ", ".join(str(g) for g in step.gcds) or "none"
        print(f"  {step.part}: strips {step.removed} (cofactor {step.remaining});"
              f" witness gcds {gcds}; step bound G0({step.bound})")
    print(f"combined: N(G0(12)) <= G0({report.final})")

    print("\n== a matrix that fails to normalize ==")
    shear = GMatrix(ONE, ZERO, RingElt(0, 3), ONE)
    print(f"[[1, 0], [3L, 1]] normalizes G0(9)? {normalizes(shear, RingElt(9, 0))}")

    print("\n== the quotient group at tau = 16 and tau = 4000 ==")
    # G0(4000) has index 24 000 000 in G5, far past any coset table; the
    # quotient is (O/h, +) in closed form, so it costs the same as at 16
    for n in (16, 4000):
        q = quotient_table(RingElt(n, 0))
        print(f"G0({q.normalizer_modulus}) / G0({q.modulus}) has order {q.order},"
              f" classification {q.classification}")
        print(f"  element-order profile: {q.order_profile}")

    print("\n== which moduli admit elementary counterexamples ==")
    for n in (2, 4, 3, 8):
        verdict = is_g5_elementary(RingElt(n, 0))
        if verdict.witness is None:
            print(f"  r = {n}: no counterexample up to bound {verdict.bound}")
        else:
            x, u = verdict.witness
            print(f"  r = {n}: counterexample x = {x}, denominator scale u = {u}")
    strong4 = strongly_elementary(RingElt(4, 0))
    strong8 = strongly_elementary(RingElt(8, 0))
    print(f"all divisors of 4 clean: {strong4.holds};"
          f" all divisors of 8 clean: {strong8.holds}"
          f" (fails at {strong8.failing_divisor})")


if __name__ == "__main__":
    main()
