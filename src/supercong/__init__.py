"""Exact-arithmetic verification of truncated hypergeometric congruences:
the Van Hamme quintic congruence mod p^3 and its machinery (p-adic Gamma,
Gaussian hypergeometric series over F_p, harmonic-sum decompositions,
the terminating well-poised transformation, and the polynomial lemmas)."""
