#include "queries/paper_queries.hpp"

#include <string>

#include "util/assert.hpp"

namespace spectre::queries {

using query::BinOp;
using query::Expr;

namespace {

// close > open (rising) or close < open (falling).
Expr direction_pred(const data::StockVocab& v, bool rising) {
    return query::binary(rising ? BinOp::Gt : BinOp::Lt, query::attr(v.close_slot),
                         query::attr(v.open_slot));
}

Expr band_pred(const data::StockVocab& v, double lower, double upper) {
    // lower < close < upper
    return query::binary(BinOp::And,
                         query::binary(BinOp::Gt, query::attr(v.close_slot),
                                       query::constant(lower)),
                         query::binary(BinOp::Lt, query::attr(v.close_slot),
                                       query::constant(upper)));
}

Expr below_pred(const data::StockVocab& v, double limit) {
    return query::binary(BinOp::Lt, query::attr(v.close_slot), query::constant(limit));
}

Expr above_pred(const data::StockVocab& v, double limit) {
    return query::binary(BinOp::Gt, query::attr(v.close_slot), query::constant(limit));
}

}  // namespace

query::Query make_q1(const data::StockVocab& vocab, const Q1Params& params) {
    SPECTRE_REQUIRE(params.q >= 1, "Q1 needs pattern size q >= 1");
    SPECTRE_REQUIRE(params.ws >= 1, "Q1 needs window size >= 1");

    // MLE: a rising/falling quote of one of the 16 leading symbols.
    Expr mle = query::binary(BinOp::And, query::subject_in(vocab.leaders),
                             direction_pred(vocab, params.rising));

    query::QueryBuilder b(vocab.schema);
    b.single("MLE", mle);
    for (int i = 1; i <= params.q; ++i)
        b.single("RE" + std::to_string(i), direction_pred(vocab, params.rising));
    // Window opens at every MLE event ("WITHIN ws events FROM MLE").
    b.window(query::WindowSpec::predicate_open_count(mle, params.ws));
    b.consume_all();  // CONSUME (MLE RE1 ... REq)
    return b.build();
}

query::Query make_q2(const data::StockVocab& vocab, const Q2Params& params) {
    SPECTRE_REQUIRE(params.lower < params.upper, "Q2 needs lower < upper");

    const Expr below = below_pred(vocab, params.lower);
    const Expr band = band_pred(vocab, params.lower, params.upper);
    const Expr above = above_pred(vocab, params.upper);

    // PATTERN (A B+ C D+ E F+ G H+ I J+ K L+ M): prices oscillating between
    // the bands — below, through the band, above, back down, three times.
    query::QueryBuilder b(vocab.schema);
    b.single("A", below);
    b.plus("B", band);
    b.single("C", above);
    b.plus("D", band);
    b.single("E", below);
    b.plus("F", band);
    b.single("G", above);
    b.plus("H", band);
    b.single("I", below);
    b.plus("J", band);
    b.single("K", above);
    b.plus("L", band);
    b.single("M", below);
    b.window(query::WindowSpec::sliding_count(params.ws, params.slide));
    b.consume_all();
    return b.build();
}

query::Query make_q3(const data::StockVocab& vocab, const Q3Params& params) {
    SPECTRE_REQUIRE(params.n >= 1, "Q3 needs at least one SET member");

    // A is the first leader; the SET members are the next n distinct symbols
    // (leaders first, then the RAND dataset's generated tickers — Q3 is
    // evaluated on the RAND stream, §4.2.2).
    const auto symbol_at = [&](int i) -> event::SubjectId {
        if (i < static_cast<int>(vocab.leaders.size())) return vocab.leaders[(std::size_t)i];
        return vocab.schema->intern_subject("RSYM" + std::to_string(i));
    };

    query::QueryBuilder b(vocab.schema);
    b.single("A", query::subject_in({symbol_at(0)}));
    std::vector<query::SetMember> members;
    members.reserve(static_cast<std::size_t>(params.n));
    for (int i = 1; i <= params.n; ++i)
        members.push_back(query::SetMember{std::string("X").append(std::to_string(i)),
                                           query::subject_in({symbol_at(i)})});
    b.set("S", std::move(members));
    b.window(query::WindowSpec::sliding_count(params.ws, params.slide));
    b.consume_all();
    return b.build();
}

query::Query make_qe(const data::StockVocab& vocab, const QeParams& params) {
    const Expr a_pred = query::subject_in({vocab.schema->intern_subject(params.a_symbol)});
    const Expr b_pred = query::subject_in({vocab.schema->intern_subject(params.b_symbol)});

    // Factor = B.change / A.change with change = close - open.
    const auto change_of = [&](int slot) {
        return query::binary(BinOp::Sub, query::bound_attr(slot, vocab.close_slot),
                             query::bound_attr(slot, vocab.open_slot));
    };

    query::QueryBuilder b(vocab.schema);
    b.single("A", a_pred)
        .sticky()  // the first A correlates with every B (§2.1)
        .single("B", b_pred)
        .window(query::WindowSpec::predicate_open_time(a_pred, params.window_span))
        .emit("Factor", query::binary(BinOp::Div, change_of(1), change_of(0)));
    if (params.consume_b) b.consume({"B"});
    return b.build();
}

}  // namespace spectre::queries
