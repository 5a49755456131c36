"""Brute-force references shared by the test modules: each loops the raw
definition over ``apply_p`` and ``compose_p`` alone, so it shares no code
path with the platform's tables."""


def brute_force_conditional(pf, sample):
    """The exact key conditional of ``security_lab.exact_key_conditional``,
    looped without shortcuts: every translate, every link, every acting
    element."""
    G, H = pf.target, pf.acting
    t = sample.transcript
    n = t.n
    weights = {}
    for gamma in G.elements_p():
        links = [gamma]
        ok = True
        for i in range(1, n):
            links.append(G.compose_p(links[-1], t.z[i - 1]))
        weight = 1
        for i in range(n):
            cnt = 0
            for c in H.elements_p():
                if pf.apply_p(c, links[i]) == t.w[i]:
                    cnt += 1
            weight *= cnt
            if weight == 0:
                ok = False
                break
        if ok:
            sk = links[0]
            for link in links[1:]:
                sk = G.compose_p(sk, link)
            weights[sk] = weights.get(sk, 0) + weight
    return weights


def compose_product(group, seq):
    """The ordered product of seq, one compose_p per factor; the identity
    when seq is empty."""
    product = group.identity_p
    for s in seq:
        product = group.compose_p(product, s)
    return product
