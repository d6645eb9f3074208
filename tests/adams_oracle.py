"""Reference orders for projective-space K groups by Adams' count.

The library reads reduced KO of RP^n off a cokernel of K0 restriction
maps (cliffk.ktheory.reduced_k_rpn) and the real simple (n,0)-module
dimensions off the classification table.  Adams' count f(n) = #{0 < s <= n :
s = 0, 1, 2, 4 mod 8} predicts both independently ("Vector fields on
spheres", Ann. of Math. 75, 1962): reduced KO(RP^n) is cyclic of order
2**f(n), and the simple module of C^{n,0} has dimension 2**f(n).
"""


def adams_f(n: int) -> int:
    """#{0 < s <= n : s = 0, 1, 2, 4 mod 8}.

    >>> [adams_f(n) for n in (0, 4, 9)]
    [0, 3, 5]
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    return sum(1 for s in range(1, n + 1) if s % 8 in (0, 1, 2, 4))
