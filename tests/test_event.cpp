#include <gtest/gtest.h>

#include "event/stream.hpp"
#include "test_helpers.hpp"

using namespace spectre;
using spectre::testing::TestEnv;

TEST(Schema, InternsTypesSubjectsAttrs) {
    event::Schema s;
    const auto a = s.intern_type("A");
    EXPECT_EQ(s.intern_type("A"), a);
    EXPECT_EQ(s.type_name(a), "A");
    const auto ibm = s.intern_subject("IBM");
    EXPECT_EQ(s.subject_name(ibm), "IBM");
    const auto open = s.intern_attr("open");
    EXPECT_EQ(s.intern_attr("open"), open);
    EXPECT_EQ(s.attr_name(open), "open");
}

TEST(Schema, AttrSlotLimitEnforced) {
    event::Schema s;
    for (std::size_t i = 0; i < event::kMaxAttrs; ++i)
        s.intern_attr(std::string("a").append(std::to_string(i)));
    EXPECT_THROW(s.intern_attr("one_too_many"), std::invalid_argument);
    EXPECT_EQ(s.lookup_attr("missing"), event::kMaxAttrs);
}

TEST(EventStore, AppendAssignsDenseSeqs) {
    TestEnv env;
    event::EventStore store;
    const auto s0 = store.append(env.ev('A', 1, 0));
    const auto s1 = store.append(env.ev('B', 2, 1));
    EXPECT_EQ(s0, 0u);
    EXPECT_EQ(s1, 1u);
    EXPECT_EQ(store.at(0).seq, 0u);
    EXPECT_EQ(store.at(1).seq, 1u);
    EXPECT_EQ(store.size(), 2u);
}

TEST(EventStore, RangeIsInclusiveAndChecked) {
    TestEnv env;
    auto store = env.store_of("ABCDE");
    const auto r = store.range(1, 3);
    ASSERT_EQ(r.size(), 3u);
    EXPECT_EQ(r[0].seq, 1u);
    EXPECT_EQ(r[2].seq, 3u);
    EXPECT_THROW(store.range(3, 1), std::invalid_argument);
    EXPECT_THROW(store.range(0, 99), std::invalid_argument);
    EXPECT_THROW(store.at(99), std::invalid_argument);
}

TEST(EventToString, RendersTypeSubjectAttrs) {
    TestEnv env;
    auto e = env.ev('A', 42, 7);
    e.subject = env.schema->intern_subject("IBM");
    const auto s = event::to_string(e, *env.schema);
    EXPECT_NE(s.find("A"), std::string::npos);
    EXPECT_NE(s.find("IBM"), std::string::npos);
    EXPECT_NE(s.find("v=42"), std::string::npos);
}

TEST(ComplexEventToString, ListsConstituents) {
    event::ComplexEvent ce;
    ce.window_id = 3;
    ce.constituents = {1, 4, 9};
    ce.payload.emplace_back("factor", 2.5);
    const auto s = event::to_string(ce);
    EXPECT_NE(s.find("w3"), std::string::npos);
    EXPECT_NE(s.find("1,4,9"), std::string::npos);
    EXPECT_NE(s.find("factor=2.5"), std::string::npos);
}
