#!/usr/bin/env python3
"""Who learns what: the same query through Direct, Tor, PEAS and X-Search.

Replays one sensitive query through every system in the paper's
evaluation and prints the *privacy ledger*: for each party in each
deployment, exactly what it observed.  This is the paper's §3 adversary
model made concrete.

Run:  python examples/baseline_comparison.py
"""

import random

from repro.baselines import DirectClient, PeasSystem, TorNetwork
from repro.core import DeploymentConfig, XSearchDeployment
from repro.datasets import generate_log
from repro.search import CorpusConfig, SearchEngine, TrackingSearchEngine

QUERY = "diabetes symptoms treatment"


def header(title):
    print(f"\n=== {title} " + "=" * max(0, 56 - len(title)))


def main():
    engine = SearchEngine.with_synthetic_corpus(
        seed=3, config=CorpusConfig(docs_per_topic=50)
    )
    log = generate_log(seed=11, n_users=60)
    train_texts = [q.text for q in log][:3000]

    # ------------------------------------------------------------------
    header("Direct (no protection)")
    tracking = TrackingSearchEngine(engine)
    DirectClient(tracking, user_id="alice").search(QUERY, 10)
    view = tracking.observations[-1]
    print(f"engine sees  : source={view.source}  query={view.text!r}")
    print("verdict      : identity AND interests fully exposed")

    # ------------------------------------------------------------------
    header("Tor (unlinkability only)")
    tracking = TrackingSearchEngine(engine)
    tor = TorNetwork(tracking, n_relays=6, n_exits=2, key_bits=1024)
    tor.client("alice", rng=random.Random(1)).search(QUERY, 10)
    view = tracking.observations[-1]
    guard_view = next(
        o for relay in tor.relays for o in relay.observations
        if o.previous_hop == "ip-alice"
    )
    exit_view = next(
        o for relay in tor.relays for o in relay.observations
        if o.saw_plaintext_query
    )
    print(f"guard sees   : client=ip-alice, next={guard_view.next_hop}, "
          "no query")
    print(f"exit sees    : query={exit_view.saw_plaintext_query!r}, "
          "no client identity")
    print(f"engine sees  : source={view.source}  query={view.text!r}")
    print("verdict      : identity hidden, but the query itself can")
    print("               re-identify the user (SimAttack, Figure 3 k=0)")

    # ------------------------------------------------------------------
    header("PEAS (two non-colluding proxies + fake queries)")
    tracking = TrackingSearchEngine(engine)
    peas = PeasSystem.create(tracking, train_texts)
    peas.client("alice", k=3, rng=random.Random(2)).search(QUERY, 10)
    receiver_view = peas.receiver.observations[-1]
    issuer_view = peas.issuer.observations[-1]
    print(f"receiver sees: client={receiver_view.client_address}, "
          f"{receiver_view.ciphertext_bytes} ciphertext bytes")
    print(f"issuer sees  : {len(issuer_view.subqueries)} sub-queries "
          "(no identity):")
    for subquery in issuer_view.subqueries:
        marker = "<- real" if subquery == QUERY else ""
        print(f"               - {subquery!r} {marker}")
    print("verdict      : safe only while the two proxies do not collude;")
    print("               co-occurrence fakes are detectably synthetic")

    # ------------------------------------------------------------------
    header("X-Search (SGX enclave proxy)")
    deployment = XSearchDeployment.create(
        config=DeploymentConfig(k=3, seed=5), engine=engine)
    deployment.warm_history(train_texts[:300])
    deployment.client.search(QUERY, limit=10)
    view = deployment.tracking.observations[-1]
    print("host sees    : only ciphertext records and an attested enclave")
    print(f"engine sees  : source={view.source}")
    print("               obfuscated query (every sub-query is a real")
    print("               past query of some user):")
    for subquery in view.text.split(" OR "):
        marker = "<- real" if subquery == QUERY else ""
        print(f"               - {subquery!r} {marker}")
    print("verdict      : Byzantine host tolerated (TEE), fakes are")
    print("               indistinguishable from real traffic")


if __name__ == "__main__":
    main()
