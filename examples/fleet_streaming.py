"""A headset fleet contending for one access point.

Four clients — different scenes, codecs, and scheduling weights —
stream stereo frames over a single shared WiFi6-class link.  The fair
scheduler splits capacity by weight; switching to strict priority shows
the heaviest client reclaiming its dedicated-link frame rate at the
expense of everyone else.

Run:  python examples/fleet_streaming.py
"""

from __future__ import annotations

from repro.streaming.fleet import ClientConfig, simulate_fleet, solo_sustainable_fps
from repro.streaming.link import WirelessLink

LINK = WirelessLink(bandwidth_mbps=300.0, propagation_ms=3.0)

CLIENTS = [
    ClientConfig(name="alice", scene="office", codec="perceptual", weight=4.0),
    ClientConfig(name="bob", scene="fortnite", codec="bd"),
    ClientConfig(name="carol", scene="skyline", codec="variable-bd"),
    ClientConfig(name="dave", scene="dumbo", codec="raw"),
]


def main() -> None:
    print(f"4 clients on a {LINK.bandwidth_mbps:g} Mbps link | 192x192 stereo\n")
    for scheduler in ("fair", "priority"):
        fleet = simulate_fleet(
            CLIENTS, LINK, scheduler=scheduler, n_frames=2, n_jobs=2
        )
        print(f"-- scheduler: {scheduler}")
        header = f"{'client':>7} {'codec':>12} {'solo fps':>9} {'fleet fps':>10}  ok"
        print(header)
        for report in fleet.clients:
            print(
                f"{report.name:>7} {report.encoder:>12} "
                f"{solo_sustainable_fps(report, LINK):9.0f} "
                f"{report.sustainable_fps:10.0f}  "
                f"{'yes' if report.meets_target else 'NO'}"
            )
        print(fleet.summary())
        print()
    print(
        "Fair share taxes every stream in proportion; strict priority\n"
        "hands alice her dedicated-link rate and queues the rest behind\n"
        "her — the trade a latency-critical headset among best-effort\n"
        "peers actually faces."
    )


if __name__ == "__main__":
    main()
