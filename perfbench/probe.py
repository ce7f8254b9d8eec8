"""Speed probe of the CLI workloads: a fresh interpreter that builds and
searches one fixed large tree, touching nothing of ``semireg``.

    python3 perfbench/probe.py

``run.py`` times it from outside, fork to reap, the way it times a CLI op,
so the probe sees the same process start, allocation and graph work as
the ops, and drifts with the machine the way they do.
"""

from collections import deque

N = 40_000


def main() -> None:
    adj: list[list[int]] = [[] for _ in range(N)]
    x = 12345
    for v in range(1, N):
        x = (x * 1103515245 + 12345) % 2**31
        u = x % v
        adj[u].append(v)
        adj[v].append(u)
    seen = [False] * N
    seen[0] = True
    queue, order = deque([0]), []
    while queue:
        v = queue.popleft()
        order.append(v)
        for w in adj[v]:
            if not seen[w]:
                seen[w] = True
                queue.append(w)
    degrees = sorted(len(adj[v]) for v in order)
    if len(order) != N or sum(degrees) != 2 * (N - 1):
        raise SystemExit("probe: wrong tree")


if __name__ == "__main__":
    main()
