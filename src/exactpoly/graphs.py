"""Small undirected graphs with deterministic BFS distances and diameters."""
from __future__ import annotations

from collections import deque


class Graph:
    def __init__(self, n_nodes: int, edges):
        self.n = n_nodes
        adj = [set() for _ in range(n_nodes)]
        for a, b in edges:
            if a == b:
                continue
            adj[a].add(b)
            adj[b].add(a)
        self.adj = tuple(tuple(sorted(s)) for s in adj)

    @property
    def edges(self):
        return tuple((a, b) for a in range(self.n) for b in self.adj[a] if a < b)

    def bfs_distances(self, *sources: int):
        """Distance array from the nearest of `sources`; -1 marks
        unreachable nodes."""
        dist = [-1] * self.n
        for src in sources:
            dist[src] = 0
        queue = deque(sources)
        while queue:
            v = queue.popleft()
            dv = dist[v]
            for w in self.adj[v]:
                if dist[w] < 0:
                    dist[w] = dv + 1
                    queue.append(w)
        return dist

    def distance(self, a: int, b: int) -> int:
        d = self.bfs_distances(a)[b]
        if d < 0:
            raise ValueError(f"nodes {a} and {b} are disconnected")
        return d

    def shortest_path(self, a: int, b: int):
        """The lexicographically smallest shortest path from a to b, as a
        list of nodes: each step goes to the smallest neighbour one step
        closer to b.  Raises ValueError when b cannot be reached."""
        dist = self.bfs_distances(b)
        if dist[a] < 0:
            raise ValueError(f"nodes {a} and {b} are disconnected")
        path = [a]
        while path[-1] != b:
            path.append(next(w for w in self.adj[path[-1]] if dist[w] < dist[path[-1]]))
        return path

    def diameter(self) -> int:
        best = 0
        for v in range(self.n):
            dist = self.bfs_distances(v)
            m = max(dist)
            if min(dist) < 0:
                raise ValueError("diameter of a disconnected graph")
            best = max(best, m)
        return best
