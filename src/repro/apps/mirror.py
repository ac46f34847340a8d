"""Mirror-server selection (the paper's §5.4 application).

"A simple application that reads a 3MB file from a server after using
network information obtained from Remos to choose the best server from
a set of replicas."  To evaluate selection quality, a trial downloads
the file from *every* replica, starting with the one Remos ranked best,
and compares achieved throughputs — exactly the paper's methodology,
including the *effective bandwidth* metric that charges the Remos query
time against the chosen server's transfer.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.common.errors import QueryError, RemosError
from repro.netsim.topology import Host, Network
from repro.netsim.traffic import FileTransfer
from repro.modeler.api import Modeler

#: the paper's file size: 3 MB
DEFAULT_FILE_BYTES = 3_000_000


@dataclass
class TrialResult:
    """Outcome of one selection-plus-download trial."""

    #: sites ordered by Remos-ranked bandwidth, best first
    ranking: tuple[str, ...]
    #: Remos-reported available bandwidth per site
    reported_bps: dict[str, float]
    #: achieved transfer throughput per site
    achieved_bps: dict[str, float]
    #: simulated seconds the Remos query took
    query_time_s: float

    @property
    def chosen(self) -> str:
        return self.ranking[0]

    @property
    def fastest(self) -> str:
        return max(self.achieved_bps, key=lambda s: self.achieved_bps[s])

    @property
    def chose_best(self) -> bool:
        return self.chosen == self.fastest


class MirrorClient:
    """The selection application: query Remos, rank, download from all."""

    def __init__(
        self,
        modeler: Modeler,
        net: Network,
        client: Host,
        servers: dict[str, Host],
        file_bytes: float = DEFAULT_FILE_BYTES,
        transfer_timeout_s: float = 600.0,
    ) -> None:
        from repro.session import RemosSession

        if not servers:
            raise ValueError("need at least one server")
        self.modeler = modeler
        self.session = RemosSession(modeler)
        self.net = net
        self.client = client
        self.servers = dict(servers)
        self.file_bytes = file_bytes
        self.transfer_timeout_s = transfer_timeout_s
        self.trials: list[TrialResult] = []
        #: site -> status string for sites whose last ranking query came
        #: back degraded (STALE/PARTIAL/FAILED); reset by rank_servers
        self.degraded_sites: dict[str, str] = {}

    def rank_servers(self) -> tuple[dict[str, float], float]:
        """Ask Remos for available bandwidth to every replica.

        Returns (site -> bps, query seconds).  Sites whose query fails
        are reported with 0 bandwidth — the application still works
        when the monitoring system has blind spots.
        """
        t0 = self.net.now
        reported: dict[str, float] = {}
        self.degraded_sites = {}
        for site, server in sorted(self.servers.items()):
            try:
                # a FAILED answer reports 0 bps by itself
                ans = self.session.flow_info(server, self.client)
                if ans.degraded:
                    # blind-spot tolerance, made visible: the ranking
                    # still uses what Remos could say, but the caller
                    # can audit which sites were ranked on degraded data
                    self.degraded_sites[site] = str(ans.status)
                reported[site] = ans.available_bps
            except (QueryError, RemosError):
                reported[site] = 0.0
        return reported, self.net.now - t0

    def download_from(self, site: str) -> float:
        """Fetch the file from one replica; returns achieved bps."""
        server = self.servers[site]
        xfer = FileTransfer(
            self.net, server, self.client, self.file_bytes,
            label=f"mirror:{site}",
        )
        xfer.start()
        deadline = self.net.now + self.transfer_timeout_s
        while not xfer.complete and self.net.now < deadline:
            if not self.net.engine.step():
                break
        if not xfer.complete:
            if xfer.flow is not None:
                self.net.flows.stop_flow(xfer.flow)
            return 0.0
        return xfer.throughput_bps

    def run_trial(self) -> TrialResult:
        """One full trial: rank, then download from every replica in
        decreasing reported-bandwidth order."""
        reported, query_s = self.rank_servers()
        ranking = tuple(
            sorted(reported, key=lambda s: (-reported[s], s))
        )
        achieved = {site: self.download_from(site) for site in ranking}
        result = TrialResult(ranking, reported, achieved, query_s)
        self.trials.append(result)
        return result

    # -- aggregate statistics (Figs. 8-9 rows) ---------------------------

    def best_pick_rate(self) -> float:
        """Fraction of trials where Remos chose the fastest replica."""
        if not self.trials:
            return 0.0
        return sum(t.chose_best for t in self.trials) / len(self.trials)

    def effective_bandwidth(self, trial: TrialResult) -> float:
        """Chosen-site throughput charged with the query time."""
        chosen_bps = trial.achieved_bps[trial.chosen]
        if chosen_bps <= 0:
            return 0.0
        transfer_s = self.file_bytes * 8.0 / chosen_bps
        return self.file_bytes * 8.0 / (transfer_s + trial.query_time_s)

    def rank_averages(self) -> list[float]:
        """Average achieved bandwidth by Remos rank (rank 0 = chosen).

        These are the per-rank bars of Figs. 8 and 9.
        """
        if not self.trials:
            return []
        n_sites = len(self.servers)
        sums = [0.0] * n_sites
        for t in self.trials:
            for rank, site in enumerate(t.ranking):
                sums[rank] += t.achieved_bps[site]
        return [s / len(self.trials) for s in sums]
