"""A walking tour of coefficient plans.

Grows a plan stage by stage, prints the derived tower (q, p, alpha),
and runs the numeric audit on the desk-scale defaults.
"""

from fractions import Fraction

from circsys.coefficients import (audit_plan, code_coefficients, desk_plan,
                                  dynamical_index, extend_plan)


def main():
    plan = desk_plan(kl=((2, 2), (2, 2)))
    print("desk plan, two (k, l) = (2, 2) stages")
    print(f"{'n':>3} {'q_n':>8} {'p_n':>8} {'alpha_n':>12}")
    for n in range(plan.depth + 1):
        print(f"{n:>3} {plan.q(n):>8} {plan.p(n):>8} "
              f"{str(plan.alpha(n)):>12}")

    print("\ndynamical indices j_i = p^-1 i mod q at the top stage:")
    q, p = plan.q(2), plan.p(2)
    js = [dynamical_index(p, q, i) for i in range(q)]
    print(f"  q = {q}, p = {p}, first dozen: {js[:12]}")
    print(f"  reflection check: q - j_1 = {q - js[1]} = j_{{q-1}} = {js[-1]}")

    print("\ngrowing two more stages with the desk policy:")
    for _ in range(2):
        plan = extend_plan(plan)
    for n in range(plan.depth + 1):
        print(f"  stage {n}: q = {plan.q(n)}")

    A = code_coefficients(plan, plan.depth - 1)
    print(f"\nreflection-code coefficients A: {A}")
    print("  growth bound |A_(n+1)| < 2 q_n holds:",
          all(abs(A[n + 1]) < 2 * plan.q(n) for n in range(len(A) - 1)))

    report = audit_plan(plan)
    print("\nnumeric audit (desk scale waives the asymptotic floors):")
    for entry in report.entries:
        flag = " (waived)" if entry.desk_waived else ""
        print(f"  {entry.req_id}: {entry.status}{flag}")


if __name__ == "__main__":
    main()
