"""
Upper-bound certificates for definable families
===============================================

Quantifier-free formulas admit a counting bound: with capacity ell summed
over the atoms, no family the formula defines can shatter n points once
2^n > (n+1)^ell.  Quantified formulas are certified by eliminating first.
"""

from pavc import (
    PartitionedFormula,
    capacity_bound,
    certificate,
    certificate_report,
    encode_bridged,
    encode_naive,
    family_from_formula,
    inventory,
    parse,
    upper_bound_via_qe,
    vc_dimension,
)

# the capacity bound alone: largest n with 2^n <= (n+1)^ell
for ell in (1, 2, 3, 10):
    print(f"ell = {ell:2d}  ->  dimension bound {capacity_bound(ell)}")

# a quantifier-free formula is certified straight off its atoms
f = parse("(and (div 2 x) (<= x y))", allow_div=True)
inv = inventory(f)
cert = certificate(inv)
print(f"quantifier-free: ell = {cert.ell}, dimension bound {cert.bound}")

# quantified: eliminate, then certify the quantifier-free equivalent
pf = PartitionedFormula(
    parse("(exists z (and (= x (* 2 z)) (<= x y)))"), ("x",), ("y",))
cert, inv, stats = upper_bound_via_qe(pf)
print("after elimination:", certificate_report(cert, inv, stats))
print("certified dimension bound:", cert.bound)

# the certificate must dominate anything we can measure on windows
fam = family_from_formula(pf, (0, 11), {"y": (-4, 12)}, mode="qe")
measured = vc_dimension(fam).vc_dim
print("measured on windows:", measured, " certificate:", cert.bound,
      " dominated:", measured <= cert.bound)

# same story for generated high-dimension formulas: measured value is
# exactly d, the certificate is far above it (elimination is loose)
for name, encode, d in (("naive", encode_naive, 3), ("bridged", encode_bridged, 5)):
    pf, meta = encode(d)
    cert, _, stats = upper_bound_via_qe(pf)
    fam = family_from_formula(
        pf, meta.ground_window, {meta.param_var: meta.param_window},
        mode="bounded", hints=meta.hint_map())
    print(f"{name} d={d} generator: measured", vc_dimension(fam).vc_dim,
          " certificate", cert.bound,
          f" ({stats['atoms_after']} atoms after elimination)")
