"""Game-theoretic model of the resource allocation strategy (Section 5.3).

The load shedding strategy of Chapter 5 is modelled as a strategic game in
which each query is a player whose action is its *minimum cycle demand*
``a_q = m_q * d_q`` and whose payoff is the number of cycles the system ends
up allocating to it (Equation 5.7):

* if the sum of all minimum demands no larger than ``a_q`` exceeds the
  capacity ``C``, the query is disabled and its payoff is 0 (the system
  always disables the queries with the largest minimum demands first);
* otherwise the query receives its minimum demand plus a max-min fair share
  of the spare cycles left after satisfying every active query.

Theorem 5.1 states that the game has a single Nash equilibrium in which every
player demands exactly ``C / |Q|``.  This module provides the payoff
function, numeric best responses, best-response dynamics and an equilibrium
checker used to verify the theorem empirically.

Ties and determinism: equal demands straddling the capacity boundary are
resolved by :func:`repro.core.fairness.disable_priority_order` — the same
helper the allocator uses — so passing the query ``names`` makes the game
disable exactly the query that ``_disable_largest_min_demands`` would.
Without names the order falls back to stable input order (still
deterministic, but only consistent with the allocator when demands are
unique).

The best-response search is columnar: :func:`payoff_grid` evaluates a whole
candidate grid in one pass over a sorted-cumsum representation of the other
players' demands, so :func:`best_response_dynamics` runs at hundreds of
players without per-grid-point profile rebuilding.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

from .fairness import disable_priority_order, name_ranks

#: Slack used when charging demands against the capacity.
_CAPACITY_SLACK = 1e-9


def active_players(actions: Sequence[float], capacity: float,
                   names: Optional[Sequence[str]] = None) -> np.ndarray:
    """Boolean mask of players whose minimum demand the system satisfies.

    Player ``q`` is active iff the total of every demand less than or equal
    to ``a_q`` (including its own) fits within the capacity; this encodes the
    "disable the largest minimum demands first" policy.  With ``names``,
    equal demands are ordered lexicographically by name — the allocator's
    tie-break — so both code paths disable the same player at the boundary.
    """
    actions = np.asarray(actions, dtype=np.float64)
    order = disable_priority_order(actions, names)
    cumulative = np.cumsum(actions[order])
    active_sorted = cumulative <= capacity + _CAPACITY_SLACK
    active = np.zeros(len(actions), dtype=bool)
    active[order] = active_sorted
    return active


def payoffs(actions: Sequence[float], capacity: float,
            names: Optional[Sequence[str]] = None) -> np.ndarray:
    """Payoff of every player for the action profile ``actions`` (Eq. 5.7).

    Active players receive their demand plus an equal (max-min fair, with no
    ceilings) share of the spare capacity; disabled players receive zero.
    """
    actions = np.asarray(actions, dtype=np.float64)
    if np.any(actions < 0):
        raise ValueError("demands must be non-negative")
    result = np.zeros(len(actions), dtype=np.float64)
    active = active_players(actions, capacity, names)
    if not active.any():
        return result
    spare = capacity - actions[active].sum()
    share = max(spare, 0.0) / active.sum()
    result[active] = actions[active] + share
    return result


def payoff_of(player: int, action: float, others: Sequence[float],
              capacity: float,
              names: Optional[Sequence[str]] = None) -> float:
    """Payoff of ``player`` when it deviates to ``action``.

    ``others`` contains the actions of the remaining players in order; the
    player's action is inserted back at ``player``'s index.  ``names``, when
    given, is the *full* profile's name list (including the player's).
    """
    profile = list(others)
    profile.insert(player, action)
    return float(payoffs(profile, capacity, names)[player])


def _tie_ranks(player: int, n_others: int,
               names: Optional[Sequence[str]]):
    """Disable-order tie ranks for the player and each other player."""
    if names is not None:
        if len(names) != n_others + 1:
            raise ValueError("names must cover the full profile")
        ranks = name_ranks(names)
        player_rank = int(ranks[player])
        other_ranks = np.delete(ranks, player)
    else:
        # Stable input order: the profile index is the tie rank.
        player_rank = player
        other_ranks = np.arange(n_others, dtype=np.int64)
        other_ranks[player:] += 1
    return player_rank, other_ranks


def payoff_grid(player: int, candidates: Sequence[float],
                others: Sequence[float], capacity: float,
                names: Optional[Sequence[str]] = None) -> np.ndarray:
    """Payoffs of ``player`` for every candidate action, in one pass.

    Equivalent to ``[payoff_of(player, a, others, capacity) for a in
    candidates]`` (up to float-summation rounding: sums here come from one
    cumulative sum over the sorted profile rather than a masked ``.sum()``)
    but vectorised: the other players are sorted once, and each candidate is
    located by binary search in the cumulative-demand curve to read off its
    active set, active-demand total and spare share without rebuilding the
    profile.
    """
    candidates = np.asarray(candidates, dtype=np.float64)
    others_arr = np.asarray(list(others), dtype=np.float64)
    if np.any(candidates < 0) or np.any(others_arr < 0):
        raise ValueError("demands must be non-negative")
    player_rank, other_ranks = _tie_ranks(player, len(others_arr), names)

    order = np.lexsort((other_ranks, others_arr))
    sorted_others = others_arr[order]
    sorted_ranks = other_ranks[order]
    cumulative = np.cumsum(sorted_others)  # cumulative[i] = sum of first i+1
    prefix = np.concatenate(([0.0], cumulative))  # prefix[i] = sum of first i

    # Merged-sort position of the candidate among the others: all strictly
    # smaller demands, plus equal demands whose tie rank precedes the
    # player's (stable-sort semantics).
    left = np.searchsorted(sorted_others, candidates, side="left")
    right = np.searchsorted(sorted_others, candidates, side="right")
    preceding = np.concatenate(
        ([0], np.cumsum(sorted_ranks < player_rank)))
    position = left + (preceding[right] - preceding[left])

    limit = capacity + _CAPACITY_SLACK
    player_active = prefix[position] + candidates <= limit
    # Actives beyond the player's position must also absorb the player's
    # demand; actives below it never see it.
    beyond = np.searchsorted(cumulative, limit - candidates, side="right")
    alone = min(int(np.searchsorted(cumulative, limit, side="right")),
                len(sorted_others))
    n_active = np.where(player_active, beyond + 1,
                        np.minimum(position, alone))
    active_sum = np.where(player_active,
                          prefix[np.where(player_active, beyond, 0)]
                          + candidates,
                          prefix[np.minimum(position, alone)])
    share = np.zeros(len(candidates))
    occupied = n_active > 0
    share[occupied] = np.maximum(capacity - active_sum[occupied], 0.0) \
        / n_active[occupied]
    return np.where(player_active, candidates + share, 0.0)


def best_response(player: int, others: Sequence[float], capacity: float,
                  grid: int = 2000,
                  names: Optional[Sequence[str]] = None
                  ) -> Tuple[float, float]:
    """Numeric best response of ``player`` to the other players' actions.

    Searches a uniform grid over ``[0, capacity]`` plus the strategically
    relevant boundary points and returns ``(best_action, best_payoff)``.
    The whole grid is evaluated by one :func:`payoff_grid` call; the winner
    is the *last* candidate that improves the running maximum by more than
    1e-12, matching the historical sequential scan.
    """
    candidates = np.linspace(0.0, capacity, grid + 1)
    # Boundary candidates: slightly below the capacity left by the others and
    # the equal-share point, where the payoff is discontinuous.
    others_arr = np.asarray(list(others), dtype=np.float64)
    n = len(others_arr) + 1
    extra = [max(0.0, capacity - others_arr.sum()), capacity / n]
    candidates = np.concatenate([candidates, np.asarray(extra)])
    values = payoff_grid(player, candidates, others_arr, capacity, names)
    running = np.maximum.accumulate(values)
    previous = np.concatenate(([-np.inf], running[:-1]))
    improved = np.flatnonzero(values > previous + 1e-12)
    best_index = improved[-1] if improved.size else 0
    return float(candidates[best_index]), float(values[best_index])


def is_nash_equilibrium(actions: Sequence[float], capacity: float,
                        grid: int = 2000, tolerance: float = 1e-6,
                        names: Optional[Sequence[str]] = None) -> bool:
    """Check that no player can gain more than ``tolerance`` by deviating."""
    actions = list(actions)
    current = payoffs(actions, capacity, names)
    for player in range(len(actions)):
        others = actions[:player] + actions[player + 1:]
        _, best_value = best_response(player, others, capacity, grid=grid,
                                      names=names)
        if best_value > current[player] + tolerance * max(1.0, capacity):
            return False
    return True


def best_response_dynamics(
    initial_actions: Sequence[float],
    capacity: float,
    max_rounds: int = 100,
    grid: int = 2000,
    tolerance: float = 1e-6,
    names: Optional[Sequence[str]] = None,
) -> Tuple[np.ndarray, int, bool]:
    """Iterate best responses until the profile stops changing.

    Returns ``(final_actions, rounds_used, converged)``.  Starting from any
    profile, the dynamics converge to the unique equilibrium where every
    player demands ``capacity / n`` (Theorem 5.1).
    """
    actions = [float(a) for a in initial_actions]
    for round_index in range(1, max_rounds + 1):
        changed = False
        for player in range(len(actions)):
            others = actions[:player] + actions[player + 1:]
            best_action, best_value = best_response(player, others, capacity,
                                                    grid=grid, names=names)
            current_value = payoff_of(player, actions[player], others,
                                      capacity, names)
            if best_value > current_value + tolerance * max(1.0, capacity):
                actions[player] = best_action
                changed = True
        if not changed:
            return np.asarray(actions), round_index, True
    return np.asarray(actions), max_rounds, False


def equilibrium_profile(n_players: int, capacity: float) -> np.ndarray:
    """The unique Nash equilibrium profile: every player demands ``C / n``."""
    if n_players <= 0:
        raise ValueError("n_players must be positive")
    return np.full(n_players, capacity / n_players, dtype=np.float64)

