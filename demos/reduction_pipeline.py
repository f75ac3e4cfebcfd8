"""From a tree prefix to a reduction with a continuity certificate.

Reduces a finite tree prefix to a built word sequence, certifies which
part of the input the output actually depended on, and prints the
realization handoff stub.
"""

import json

from circsys.coefficients import desk_plan
from circsys.trees import (TreePrefix, certify_continuity, chain_report,
                           realization_handoff, reduce, sigma_index)


def main():
    plan = desk_plan(kl=((4, 2), (2, 2)))
    t = TreePrefix(frozenset({(), (0,), (1,), (0, 0)}))
    print(f"tree prefix: {sorted(t.nodes, key=sigma_index)}")
    rep = chain_report(t)
    print(f"longest chain: {rep.longest}")

    res = reduce(t, 1, plan, seed=7)
    print(f"\nreduction at depth 1, seed 7:")
    print(f"  consumed enumeration indices: 0..{res.bound}")
    print(f"  output hash: {res.output_hash[:16]}...")

    cert = certify_continuity(t, 1, plan, seed=7)
    print(f"\ncontinuity certificate:")
    print(f"  bound: {cert.bound}")
    print(f"  mutation above the bound (index {cert.above_index}) "
          f"unchanged: {cert.unaffected}")
    if cert.consumed_index is not None:
        print(f"  mutation at consumed index {cert.consumed_index} "
              f"changes the output: {cert.affected}")

    doc = realization_handoff(res)
    print(f"\nrealization handoff ({doc['status']}):")
    print(json.dumps(doc["stages"][0], indent=2)[:400])


if __name__ == "__main__":
    main()
