"""Solver and simulator for bidding games on finite directed graphs.

Two players hold money and bid for each move of a token; the bid winner
pays the loser and moves.  Every vertex has an exact rational cost — the
share of the total money Blue needs to force a win — and this package
computes those costs, plays the strategies built from them, and prices
the even-money betting ladder they induce.
"""

from . import agents, graphs, series, simulate, solver
from .agents import *  # noqa: F403
from .graphs import *  # noqa: F403
from .series import *  # noqa: F403
from .simulate import *  # noqa: F403
from .solver import *  # noqa: F403

__version__ = "0.1.0"

__all__ = sorted({*agents.__all__, *graphs.__all__, *series.__all__, *simulate.__all__, *solver.__all__})
