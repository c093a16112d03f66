#include "fuzz/reduce.hh"

#include "fuzz/mutate.hh"
#include "isa/encoding.hh"

namespace zarf::fuzz
{

namespace
{

struct Ctx
{
    const ReduceConfig &cfg;
    size_t evals = 0;
    std::string detail{};

    bool
    budget() const
    {
        return evals < cfg.maxEvals;
    }

    bool
    diverges(const Image &img)
    {
        if (!budget())
            return false;
        ++evals;
        OracleResult o = runOracle(img, cfg.oracle);
        if (o.verdict != Verdict::Divergence)
            return false;
        detail = o.detail;
        return true;
    }
};

/** Re-derive info words and encode; nullopt if unencodable. */
std::optional<Image>
encodeIfPossible(Program &p)
{
    if (!canEncode(p)) // also proves pattern ids resolve, which
        return std::nullopt; // computeNumLocals requires
    for (auto &d : p.decls) {
        if (d.body)
            d.numLocals = computeNumLocals(*d.body, p);
    }
    if (!canEncode(p))
        return std::nullopt;
    return encodeProgram(p);
}

/** Adopt `cand` into `cur` when it encodes and still diverges. */
bool
tryAdopt(Program &cur, Program &&cand, Ctx &c)
{
    std::optional<Image> img = encodeIfPossible(cand);
    if (!img || !c.diverges(*img))
        return false;
    cur = std::move(cand);
    return true;
}

void
collectNodes(Expr &e, std::vector<Expr *> &out)
{
    out.push_back(&e);
    if (e.isLet()) {
        collectNodes(*e.asLet().body, out);
    } else if (e.isCase()) {
        Case &c = e.asCase();
        for (auto &br : c.branches)
            collectNodes(*br.body, out);
        collectNodes(*c.elseBody, out);
    }
}

/** The node at preorder position `idx` of declaration `di`. */
Expr *
nodeAt(Program &p, size_t di, size_t idx)
{
    std::vector<Expr *> nodes;
    collectNodes(*p.decls[di].body, nodes);
    return idx < nodes.size() ? nodes[idx] : nullptr;
}

bool
passDropTrailingDecls(Program &cur, Ctx &c)
{
    bool any = false;
    while (cur.decls.size() > 1 && c.budget()) {
        Program cand = cur.clone();
        cand.decls.pop_back();
        if (!tryAdopt(cur, std::move(cand), c))
            break;
        any = true;
    }
    return any;
}

bool
passStubBodies(Program &cur, Ctx &c)
{
    bool any = false;
    for (size_t di = 0; di < cur.decls.size() && c.budget(); ++di) {
        if (!cur.decls[di].body ||
            (cur.decls[di].body->isResult() &&
             cur.decls[di].body->asResult().value == opImm(0)))
            continue;
        Program cand = cur.clone();
        cand.decls[di].body =
            std::make_unique<Expr>(Result{ opImm(0) });
        any |= tryAdopt(cur, std::move(cand), c);
    }
    return any;
}

/** One node-granular shrinking pass: for each (decl, node) try the
 *  applicable structural shrink, restarting the scan of a
 *  declaration whenever a shrink lands (node numbering shifts). */
bool
passShrinkNodes(Program &cur, Ctx &c)
{
    bool any = false;
    for (size_t di = 0; di < cur.decls.size(); ++di) {
        if (!cur.decls[di].body)
            continue;
        size_t idx = 0;
        while (c.budget()) {
            std::vector<Expr *> nodes;
            collectNodes(*cur.decls[di].body, nodes);
            if (idx >= nodes.size())
                break;
            Expr &node = *nodes[idx];
            bool adopted = false;

            if (node.isCase()) {
                // Collapse to the else branch.
                Program cand = cur.clone();
                Expr *n = nodeAt(cand, di, idx);
                *n = std::move(*cloneExpr(*node.asCase().elseBody));
                adopted = tryAdopt(cur, std::move(cand), c);
                // Or drop branches one at a time.
                for (size_t b = 0;
                     !adopted &&
                     b < node.asCase().branches.size() &&
                     c.budget();
                     ++b) {
                    Program cand2 = cur.clone();
                    Case &cc = nodeAt(cand2, di, idx)->asCase();
                    cc.branches.erase(cc.branches.begin() +
                                      ptrdiff_t(b));
                    adopted = tryAdopt(cur, std::move(cand2), c);
                }
            } else if (node.isLet()) {
                // Strip the let, keeping its body.
                Program cand = cur.clone();
                Expr *n = nodeAt(cand, di, idx);
                *n = std::move(*cloneExpr(*node.asLet().body));
                adopted = tryAdopt(cur, std::move(cand), c);
                // Or shrink its argument list.
                if (!adopted && !node.asLet().args.empty() &&
                    c.budget()) {
                    Program cand2 = cur.clone();
                    nodeAt(cand2, di, idx)->asLet().args.pop_back();
                    adopted = tryAdopt(cur, std::move(cand2), c);
                }
            }

            if (adopted)
                any = true;
            else
                ++idx; // This node is minimal; move on.
        }
    }
    return any;
}

bool
passZeroImmediates(Program &cur, Ctx &c)
{
    // Zeroing an immediate never changes the tree shape, so node
    // indices stay stable across adoptions — but pointers into `cur`
    // do not (tryAdopt replaces the whole program). Every access
    // therefore goes through nodeAt against the current tree.
    bool any = false;
    auto zeroOne = [&](size_t di, size_t idx, int arg) {
        Program cand = cur.clone();
        Expr &e = *nodeAt(cand, di, idx);
        Operand *op = nullptr;
        if (e.isResult() && arg < 0)
            op = &e.asResult().value;
        else if (e.isCase() && arg < 0)
            op = &e.asCase().scrut;
        else if (e.isLet() && arg >= 0 &&
                 size_t(arg) < e.asLet().args.size())
            op = &e.asLet().args[size_t(arg)];
        if (!op || op->src != Src::Imm || op->val == 0)
            return false;
        op->val = 0;
        return tryAdopt(cur, std::move(cand), c);
    };
    for (size_t di = 0; di < cur.decls.size(); ++di) {
        if (!cur.decls[di].body)
            continue;
        for (size_t idx = 0;; ++idx) {
            if (!c.budget())
                return any;
            Expr *node = nodeAt(cur, di, idx);
            if (!node)
                break;
            if (node->isLet()) {
                size_t nargs = node->asLet().args.size();
                for (size_t a = 0; a < nargs && c.budget(); ++a)
                    any |= zeroOne(di, idx, int(a));
            } else {
                any |= zeroOne(di, idx, -1);
            }
        }
    }
    return any;
}

/** Word-span fallback for undecodable divergers: delete whole
 *  declaration spans (fixing the count word) while the divergence
 *  persists. */
Image
reduceWordLevel(const Image &start, Ctx &c)
{
    Image cur = start;
    bool improved = true;
    while (improved && c.budget()) {
        improved = false;
        if (cur.size() < 2 || cur[0] != kMagic)
            break;
        // Spans, re-derived each round.
        std::vector<std::pair<size_t, size_t>> spans;
        size_t pos = 2;
        for (Word i = 0; i < cur[1] && pos + 2 <= cur.size(); ++i) {
            size_t len = cur[pos + 1];
            if (pos + 2 + len > cur.size())
                break;
            spans.push_back({ pos, pos + 2 + len });
            pos = pos + 2 + len;
        }
        for (size_t s = spans.size(); s-- > 1 && c.budget();) {
            Image cand = cur;
            cand.erase(cand.begin() + ptrdiff_t(spans[s].first),
                       cand.begin() + ptrdiff_t(spans[s].second));
            cand[1] -= 1;
            if (c.diverges(cand)) {
                cur = std::move(cand);
                improved = true;
                break;
            }
        }
    }
    return cur;
}

} // namespace

ReduceResult
reduceDivergence(const Image &image, const ReduceConfig &cfg)
{
    Ctx c{ cfg };
    ReduceResult out;
    out.image = image;

    if (!c.diverges(image)) {
        out.evals = c.evals;
        return out;
    }
    out.diverged = true;

    DecodeResult dec = decodeProgram(image);
    if (!dec.ok) {
        out.image = reduceWordLevel(image, c);
        out.evals = c.evals;
        out.detail = c.detail;
        return out;
    }

    Program cur = std::move(dec.program);
    bool improved = true;
    while (improved && c.budget()) {
        improved = false;
        improved |= passDropTrailingDecls(cur, c);
        improved |= passStubBodies(cur, c);
        improved |= passShrinkNodes(cur, c);
        improved |= passZeroImmediates(cur, c);
    }

    if (std::optional<Image> img = encodeIfPossible(cur))
        out.image = *img;
    out.evals = c.evals;
    out.detail = c.detail;
    return out;
}

} // namespace zarf::fuzz
