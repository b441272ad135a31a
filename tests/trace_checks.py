"""The reference validity check for execution traces.

It shares no code with the engines that build traces: it replays each
move against the distance matrix, so the tests compare the online runs
and extracted optimal traces against it.
"""

from __future__ import annotations

from kserver.execution import ExecutionTrace
from kserver.metric import MetricSpace


def trace_violations(
    trace: ExecutionTrace, metric: MetricSpace, x_lazy: bool = False
) -> list[str]:
    """Problems with a trace, empty when it is well formed.

    Checks the service invariant (a server sits on each round's request),
    cost bookkeeping against the metric, position consistency, and the
    move discipline: at most one nonempty move per round, ending at the
    request.  With ``x_lazy`` the final round may carry extra relocation
    moves, each landing in the final configuration.
    """
    problems: list[str] = []
    positions = list(trace.initial)
    total = 0
    last = len(trace.rounds)
    for t, rnd in enumerate(trace.rounds, start=1):
        # the request must be covered once the forced move has happened;
        # final-round relocations may afterwards pull the server off it
        served = rnd.request in positions
        for m in rnd.moves:
            if m.cost != metric.dist[m.origin][m.target]:
                problems.append(f"round {t}: move {m.origin}->{m.target} has cost {m.cost}")
            if m.origin == m.target:
                problems.append(f"round {t}: empty move recorded explicitly")
            if m.origin not in positions:
                problems.append(f"round {t}: move from unoccupied point {m.origin}")
                continue
            positions.remove(m.origin)
            positions.append(m.target)
            total += m.cost
            if rnd.request in positions:
                served = True
        if tuple(sorted(positions)) != rnd.config:
            problems.append(f"round {t}: recorded configuration does not match moves")
            positions = list(rnd.config)
        if not served:
            problems.append(f"round {t}: request {rnd.request} never covered")
        if x_lazy and t == last:
            final = trace.rounds[-1].config
            for m in rnd.moves:
                if m.target != rnd.request and m.target not in final:
                    problems.append(
                        f"round {t}: relocation to {m.target} outside the final configuration"
                    )
        else:
            if len(rnd.moves) > 1:
                problems.append(f"round {t}: {len(rnd.moves)} moves in a lazy round")
            if rnd.moves and rnd.moves[0].target != rnd.request:
                problems.append(f"round {t}: move does not end at the request")
    if total != trace.total_cost:
        problems.append(f"total cost {trace.total_cost} != sum of moves {total}")
    return problems
