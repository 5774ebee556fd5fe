"""A pump harmonic basis of every order 1, 2, ..., m, shared by the
harmonic-balance and acceptance tests.

twpc.harmonic_balance.HarmonicBasis keeps only the odd orders, which hold
every orbit of a one-tone pump.  The solvers read nothing of a basis but
its orders, so the tests solve in this one to check that the even orders
stay at the numerical floor and that the Newton step is right with them.
"""

from dataclasses import dataclass


@dataclass(frozen=True)
class AllOrders:
    m: int

    @property
    def orders(self) -> tuple:
        return tuple(range(1, self.m + 1))
