// Randomized differential test for the compiled expression programs
// (DESIGN.md §5.1): thousands of random expression trees evaluated against
// random contexts must produce bit-identical results — value AND ok flag —
// between the tree walker (query::eval) and the flat bytecode (ExprProgram),
// including the unbound-BoundAttr and division-by-zero paths. A second suite
// runs whole random queries through the sequential engine in both detector
// eval modes and requires identical results end to end.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>

#include "detect/expr_program.hpp"
#include "sequential/seq_engine.hpp"
#include "test_helpers.hpp"
#include "util/rng.hpp"

using namespace spectre;
using namespace spectre::detect;
using query::BinOp;
using query::Expr;
using query::UnOp;

namespace {

constexpr std::size_t kBoundSlots = 5;

// Random expression tree over up to 4 attr slots, kBoundSlots binding slots,
// a small subject/type vocabulary, and every operator — biased toward the
// numeric ops so comparisons and divisions nest deeply.
Expr gen_expr(util::Rng& rng, int depth, bool allow_current) {
    const bool leaf = depth <= 0 || rng.flip(0.3);
    if (leaf) {
        switch (rng.uniform_int(0, allow_current ? 4 : 1)) {
            case 0: {
                // Constants including exact zero (division-by-zero fodder).
                static const double consts[] = {0.0, 1.0, -1.0, 0.5, 100.0, -3.25};
                return query::constant(consts[rng.uniform_int(0, 5)]);
            }
            case 1:
                return query::bound_attr(static_cast<int>(rng.uniform_int(0, kBoundSlots)),
                                         static_cast<event::AttrSlot>(rng.uniform_int(0, 3)));
            case 2:
                return query::attr(static_cast<event::AttrSlot>(rng.uniform_int(0, 3)));
            case 3: {
                std::vector<event::SubjectId> subjects;
                const int n = static_cast<int>(rng.uniform_int(1, 4));
                for (int i = 0; i < n; ++i)
                    subjects.push_back(static_cast<event::SubjectId>(rng.uniform_int(0, 7)));
                return query::subject_in(std::move(subjects));
            }
            default:
                return query::type_is(static_cast<event::TypeId>(rng.uniform_int(0, 7)));
        }
    }
    if (rng.flip(0.15))
        return query::unary(rng.flip(0.5) ? UnOp::Neg : UnOp::Not,
                            gen_expr(rng, depth - 1, allow_current));
    static const BinOp ops[] = {BinOp::Add, BinOp::Sub, BinOp::Mul, BinOp::Div,
                                BinOp::Lt,  BinOp::Le,  BinOp::Gt,  BinOp::Ge,
                                BinOp::Eq,  BinOp::Ne,  BinOp::And, BinOp::Or};
    const BinOp op = ops[rng.uniform_int(0, 11)];
    return query::binary(op, gen_expr(rng, depth - 1, allow_current),
                         gen_expr(rng, depth - 1, allow_current));
}

event::Event gen_event(util::Rng& rng, event::Seq seq) {
    event::Event e;
    e.seq = seq;
    e.ts = static_cast<event::Timestamp>(seq);
    e.type = static_cast<event::TypeId>(rng.uniform_int(0, 7));
    e.subject = static_cast<event::SubjectId>(rng.uniform_int(0, 7));
    for (event::AttrSlot s = 0; s < 4; ++s) {
        // Mix of zeros (div-by-zero), negatives, and equal-prone values.
        const double v = rng.flip(0.2) ? 0.0 : static_cast<double>(rng.uniform_int(-4, 4));
        e.set_attr(s, v);
    }
    return e;
}

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

}  // namespace

TEST(ExprProgram, RandomTreesBitIdenticalToTreeEval) {
    util::Rng rng(20260728);
    std::size_t unbound_hits = 0, div_by_zero_capable = 0;

    for (int t = 0; t < 4000; ++t) {
        const Expr tree = gen_expr(rng, static_cast<int>(rng.uniform_int(1, 6)), true);
        const ExprProgram prog = ExprProgram::compile(tree);
        ASSERT_TRUE(prog.valid());
        EvalScratch scratch;

        for (int c = 0; c < 8; ++c) {
            const event::Event current = gen_event(rng, static_cast<event::Seq>(c));
            // Bound slots with random gaps: unbound references must
            // short-circuit identically in both evaluators.
            std::vector<event::Event> pool;
            pool.reserve(kBoundSlots);
            std::vector<const event::Event*> bound(kBoundSlots, nullptr);
            for (std::size_t i = 0; i < kBoundSlots; ++i) {
                pool.push_back(gen_event(rng, static_cast<event::Seq>(100 + i)));
                if (rng.flip(0.6)) bound[i] = &pool.back();
            }

            query::EvalContext ctx;
            ctx.current = &current;
            ctx.bound = bound;

            bool tree_ok = true;
            const double tree_v = query::eval(*tree, ctx, tree_ok);
            bool prog_ok = true;
            const double prog_v = prog.run(&current, bound, prog_ok, scratch);

            ASSERT_EQ(tree_ok, prog_ok) << "ok flag diverged on tree " << t;
            ASSERT_EQ(bits(tree_v), bits(prog_v))
                << "value diverged on tree " << t << ": " << tree_v << " vs " << prog_v;

            // eval_bool parity (the predicate-path contract).
            ASSERT_EQ(query::eval_bool(tree, ctx),
                      prog.run_bool(&current, bound, scratch));

            if (!tree_ok) ++unbound_hits;
            if (std::isnan(tree_v) || std::isinf(tree_v)) ++div_by_zero_capable;
        }
    }
    // The generator must actually exercise the interesting paths.
    EXPECT_GT(unbound_hits, 100u);
    EXPECT_GT(div_by_zero_capable, 10u);
}

TEST(ExprProgram, PayloadStyleNullCurrentContexts) {
    // Payload expressions run with current == nullptr; restrict leaves to
    // constants and bound refs (an Attr would throw in both evaluators).
    util::Rng rng(777);
    for (int t = 0; t < 1000; ++t) {
        const Expr tree = gen_expr(rng, static_cast<int>(rng.uniform_int(1, 5)), false);
        const ExprProgram prog = ExprProgram::compile(tree);
        EvalScratch scratch;

        std::vector<event::Event> pool;
        pool.reserve(kBoundSlots);
        std::vector<const event::Event*> bound(kBoundSlots, nullptr);
        for (std::size_t i = 0; i < kBoundSlots; ++i) {
            pool.push_back(gen_event(rng, static_cast<event::Seq>(i)));
            if (rng.flip(0.5)) bound[i] = &pool.back();
        }

        query::EvalContext ctx;
        ctx.current = nullptr;
        ctx.bound = bound;

        bool tree_ok = true;
        const double tree_v = query::eval(*tree, ctx, tree_ok);
        bool prog_ok = true;
        const double prog_v = prog.run(nullptr, bound, prog_ok, scratch);

        ASSERT_EQ(tree_ok, prog_ok);
        ASSERT_EQ(bits(tree_v), bits(prog_v));
        // The engine's payload contract: unbound ⇒ 0.0.
        const double tree_payload = tree_ok ? tree_v : 0.0;
        const double prog_payload = prog_ok ? prog_v : 0.0;
        ASSERT_EQ(bits(tree_payload), bits(prog_payload));
    }
}

TEST(ExprProgram, DeepChainsStayWithinComputedStackDepth) {
    // Left- and right-leaning chains: the compiler's stack-need computation
    // must cover both shapes (right-leaning is the deep one in postfix).
    Expr left = query::constant(1.0);
    Expr right = query::constant(1.0);
    for (int i = 0; i < 200; ++i) {
        left = query::binary(BinOp::Add, left, query::constant(1.0));
        right = query::binary(BinOp::Add, query::constant(1.0), right);
    }
    const ExprProgram pl = ExprProgram::compile(left);
    const ExprProgram pr = ExprProgram::compile(right);
    EXPECT_EQ(pl.stack_depth(), 2u);
    EXPECT_EQ(pr.stack_depth(), 201u);

    EvalScratch scratch;
    bool ok = true;
    EXPECT_EQ(pl.run(nullptr, {}, ok, scratch), 201.0);
    EXPECT_EQ(pr.run(nullptr, {}, ok, scratch), 201.0);
    EXPECT_TRUE(ok);
}

namespace {

// Random end-to-end queries: both detector eval modes must produce identical
// SeqResults over identical random streams.
struct DiffEnv {
    std::shared_ptr<event::Schema> schema = std::make_shared<event::Schema>();
    event::AttrSlot v = schema->intern_attr("v");
    event::AttrSlot w = schema->intern_attr("w");
    std::vector<event::TypeId> types;
    std::vector<event::SubjectId> subjects;

    DiffEnv() {
        for (char c = 'A'; c <= 'E'; ++c) types.push_back(schema->intern_type(std::string(1, c)));
        for (int i = 0; i < 4; ++i)
            subjects.push_back(schema->intern_subject(std::string("S").append(std::to_string(i))));
    }

    Expr rand_pred(util::Rng& rng, int max_bound_slot) {
        // A type test, optionally AND/OR-combined with an attribute
        // comparison that may reference an earlier binding slot.
        Expr base = query::type_is(types[rng.uniform_int(0, 4)]);
        if (rng.flip(0.5)) return base;
        Expr lhs = query::attr(rng.flip(0.5) ? v : w);
        Expr rhs = max_bound_slot >= 0 && rng.flip(0.5)
                       ? query::bound_attr(static_cast<int>(rng.uniform_int(0, max_bound_slot)),
                                           rng.flip(0.5) ? v : w)
                       : query::constant(static_cast<double>(rng.uniform_int(-2, 6)));
        static const BinOp cmps[] = {BinOp::Lt, BinOp::Le, BinOp::Gt, BinOp::Ge, BinOp::Ne};
        Expr cmp = query::binary(cmps[rng.uniform_int(0, 4)], std::move(lhs), std::move(rhs));
        return query::binary(rng.flip(0.5) ? BinOp::And : BinOp::Or, std::move(base),
                             std::move(cmp));
    }

    query::Query rand_query(util::Rng& rng) {
        query::QueryBuilder b(schema);
        const int elems = static_cast<int>(rng.uniform_int(2, 4));
        int slot = 0;
        for (int i = 0; i < elems; ++i) {
            const std::string name(1, static_cast<char>('P' + i));
            const int r = static_cast<int>(rng.uniform_int(0, 9));
            if (r < 6) {
                b.single(name, rand_pred(rng, slot - 1));
                ++slot;
            } else if (r < 8) {
                b.plus(name, rand_pred(rng, slot - 1));
                ++slot;
            } else {
                std::vector<query::SetMember> members;
                const int n = static_cast<int>(rng.uniform_int(2, 3));
                for (int j = 0; j < n; ++j)
                    members.push_back(query::SetMember{name + std::to_string(j),
                                                       rand_pred(rng, slot - 1)});
                b.set(name, std::move(members));
                slot += n + 1;
                continue;
            }
            if (rng.flip(0.2)) b.guard(rand_pred(rng, -1));
        }
        b.window(query::WindowSpec::sliding_count(
            static_cast<std::uint64_t>(rng.uniform_int(10, 30)),
            static_cast<std::uint64_t>(rng.uniform_int(3, 10))));
        switch (rng.uniform_int(0, 2)) {
            case 0: b.consume_none(); break;
            case 1: b.consume_all(); break;
            default: b.consume({"P"}); break;
        }
        if (rng.flip(0.4)) {
            b.select(query::SelectionPolicy::Each);
            b.max_matches(static_cast<int>(rng.uniform_int(0, 4)));
        }
        if (rng.flip(0.5))
            b.emit("val", query::binary(BinOp::Div,
                                        query::bound_attr(0, v),
                                        query::bound_attr(0, w)));
        return b.build();
    }

    event::EventStore rand_store(util::Rng& rng, std::size_t n) {
        event::EventStore s;
        for (std::size_t i = 0; i < n; ++i) {
            event::Event e;
            e.seq = i;
            e.ts = static_cast<event::Timestamp>(i);
            e.type = types[rng.uniform_int(0, 4)];
            e.subject = subjects[rng.uniform_int(0, 3)];
            e.set_attr(v, static_cast<double>(rng.uniform_int(-3, 6)));
            e.set_attr(w, rng.flip(0.15) ? 0.0 : static_cast<double>(rng.uniform_int(1, 5)));
            s.append(e);
        }
        return s;
    }
};

// Bit-exact complex-event comparison: payload doubles are compared by bit
// pattern, so a NaN payload (0/0 from the random divisions) must match the
// other engine's NaN exactly instead of poisoning operator== (NaN != NaN).
bool bit_identical(const std::vector<event::ComplexEvent>& a,
                   const std::vector<event::ComplexEvent>& b) {
    if (a.size() != b.size()) return false;
    for (std::size_t i = 0; i < a.size(); ++i) {
        if (a[i].window_id != b[i].window_id) return false;
        if (a[i].constituents != b[i].constituents) return false;
        if (a[i].payload.size() != b[i].payload.size()) return false;
        for (std::size_t j = 0; j < a[i].payload.size(); ++j) {
            if (a[i].payload[j].first != b[i].payload[j].first) return false;
            if (bits(a[i].payload[j].second) != bits(b[i].payload[j].second)) return false;
        }
    }
    return true;
}

}  // namespace

TEST(ExprProgram, DetectorModesProduceIdenticalSequentialRuns) {
    DiffEnv env;
    util::Rng rng(42424242);
    std::size_t total_ces = 0;
    for (int t = 0; t < 60; ++t) {
        const auto q = env.rand_query(rng);
        const auto cq = CompiledQuery::compile(q);
        const auto store = env.rand_store(rng, 300);

        const sequential::SequentialEngine compiled(&cq, EvalMode::Compiled);
        const sequential::SequentialEngine tree(&cq, EvalMode::Tree);
        const auto rc = compiled.run(store);
        const auto rt = tree.run(store);

        ASSERT_TRUE(bit_identical(rc.complex_events, rt.complex_events)) << "query " << t;
        total_ces += rc.complex_events.size();
        EXPECT_EQ(rc.stats.events_processed, rt.stats.events_processed);
        EXPECT_EQ(rc.stats.events_suppressed, rt.stats.events_suppressed);
        EXPECT_EQ(rc.stats.groups_created, rt.stats.groups_created);
        EXPECT_EQ(rc.stats.groups_completed, rt.stats.groups_completed);
        EXPECT_EQ(rc.stats.groups_abandoned, rt.stats.groups_abandoned);
    }
    EXPECT_GT(total_ces, 100u) << "random queries must actually produce matches";
}
