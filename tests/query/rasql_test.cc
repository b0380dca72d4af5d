#include "query/rasql.h"

#include <gtest/gtest.h>

#include "test_paths.h"

#include "tiling/aligned.h"

namespace tilestore {
namespace {

// ---------------------------------------------------------------------------
// Parser.

TEST(RasqlParseTest, TrimQuery) {
  Result<RasqlQuery> q =
      ParseRasql("select sales[32:59,*:*,28:35] from sales");
  ASSERT_TRUE(q.ok()) << q.status();
  EXPECT_EQ(q->object, "sales");
  ASSERT_TRUE(q->trim.has_value());
  EXPECT_EQ(q->trim->ToString(), "[32:59,*:*,28:35]");
  EXPECT_FALSE(q->condenser.has_value());
}

TEST(RasqlParseTest, WholeObjectQuery) {
  Result<RasqlQuery> q = ParseRasql("SELECT img FROM img");
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(q->object, "img");
  EXPECT_FALSE(q->trim.has_value());
}

TEST(RasqlParseTest, CondenserQuery) {
  Result<RasqlQuery> q =
      ParseRasql("select add_cells(cube[1:31,28:42,28:35]) from cube");
  ASSERT_TRUE(q.ok()) << q.status();
  ASSERT_TRUE(q->condenser.has_value());
  EXPECT_EQ(*q->condenser, AggregateOp::kSum);
  ASSERT_TRUE(q->trim.has_value());
  EXPECT_EQ(q->trim->lo(0), 1);
}

TEST(RasqlParseTest, KeywordsAreCaseInsensitiveAndWhitespaceFree) {
  EXPECT_TRUE(ParseRasql("  SeLeCt   a[0:5]   FrOm   a  ").ok());
  EXPECT_TRUE(ParseRasql("select avg_cells( a[0:5] ) from a").ok());
}

TEST(RasqlParseTest, RejectsMalformedQueries) {
  EXPECT_FALSE(ParseRasql("").ok());
  EXPECT_FALSE(ParseRasql("selec a from a").ok());
  EXPECT_FALSE(ParseRasql("select a").ok());                    // no FROM
  EXPECT_FALSE(ParseRasql("select from a").ok());               // no item
  EXPECT_FALSE(ParseRasql("select a[0:5 from a").ok());         // bad trim
  EXPECT_FALSE(ParseRasql("select a[5:0] from a").ok());        // lo > hi
  EXPECT_FALSE(ParseRasql("select bogus_cells(a) from a").ok());
  EXPECT_FALSE(ParseRasql("select add_cells(a from a").ok());   // no ')'
  EXPECT_FALSE(ParseRasql("select 1a from 1a").ok());           // bad ident
  EXPECT_FALSE(ParseRasql("select a from b").ok());             // mismatch
}

TEST(RasqlParseTest, BareSelectKeywordIsRejected) {
  // Exactly the keyword: the check for whitespace after it must not read
  // past the end of the query.
  for (const char* text : {"select", "SELECT", "  select  "}) {
    EXPECT_TRUE(ParseRasql(text).status().IsInvalidArgument()) << text;
  }
}

TEST(RasqlParseTest, FromInsideBracketsIsNotAKeyword) {
  // An object named "fromage" must not confuse the keyword scanner.
  Result<RasqlQuery> q = ParseRasql("select fromage[0:5] from fromage");
  ASSERT_TRUE(q.ok()) << q.status();
  EXPECT_EQ(q->object, "fromage");
}

// ---------------------------------------------------------------------------
// Engine.

class RasqlEngineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = UniqueTestPath("rasql_test.db");
    (void)RemoveFile(path_);
    MDDStoreOptions options;
    options.page_size = 512;
    store_ = MDDStore::Create(path_, options).MoveValue();

    const MInterval domain({{0, 9}, {0, 9}});
    MDDObject* obj =
        store_->CreateMDD("img", domain, CellType::Of(CellTypeId::kInt32))
            .value();
    Array data = Array::Create(domain, obj->cell_type()).value();
    ForEachPoint(domain, [&](const Point& p) {
      data.Set<int32_t>(p, static_cast<int32_t>(p[0] * 10 + p[1]));
    });
    ASSERT_TRUE(obj->Load(data, AlignedTiling::Regular(2, 256)).ok());
  }
  void TearDown() override {
    store_.reset();
    (void)RemoveFile(path_);
  }

  std::string path_;
  std::unique_ptr<MDDStore> store_;
};

TEST_F(RasqlEngineTest, TrimReturnsArray) {
  RasqlEngine engine(store_.get());
  Result<RasqlValue> value = engine.Execute("select img[2:3,4:6] from img");
  ASSERT_TRUE(value.ok()) << value.status();
  ASSERT_FALSE(value->is_scalar());
  EXPECT_EQ(value->array->domain(), MInterval({{2, 3}, {4, 6}}));
  EXPECT_EQ(value->array->At<int32_t>(Point({3, 5})), 35);
}

TEST_F(RasqlEngineTest, WholeObjectResolvesToCurrentDomain) {
  RasqlEngine engine(store_.get());
  Result<RasqlValue> value = engine.Execute("select img from img");
  ASSERT_TRUE(value.ok()) << value.status();
  EXPECT_EQ(value->array->domain(), MInterval({{0, 9}, {0, 9}}));
}

TEST_F(RasqlEngineTest, StarBoundsWork) {
  RasqlEngine engine(store_.get());
  Result<RasqlValue> value = engine.Execute("select img[3:3,*:*] from img");
  ASSERT_TRUE(value.ok()) << value.status();
  EXPECT_EQ(value->array->domain(), MInterval({{3, 3}, {0, 9}}));
}

TEST_F(RasqlEngineTest, CondenserReturnsScalar) {
  RasqlEngine engine(store_.get());
  // Sum over row 2: 20+21+...+29 = 245.
  Result<RasqlValue> sum =
      engine.Execute("select add_cells(img[2:2,0:9]) from img");
  ASSERT_TRUE(sum.ok()) << sum.status();
  ASSERT_TRUE(sum->is_scalar());
  EXPECT_DOUBLE_EQ(sum->scalar, 245.0);

  Result<RasqlValue> avg =
      engine.Execute("select avg_cells(img[2:2,0:9]) from img");
  ASSERT_TRUE(avg.ok());
  EXPECT_DOUBLE_EQ(avg->scalar, 24.5);

  Result<RasqlValue> max = engine.Execute("select max_cells(img) from img");
  ASSERT_TRUE(max.ok());
  EXPECT_DOUBLE_EQ(max->scalar, 99.0);
}

TEST_F(RasqlEngineTest, StatsAreReported) {
  RasqlEngine engine(store_.get());
  QueryStats stats;
  ASSERT_TRUE(engine.Execute("select img[0:9,0:9] from img", &stats).ok());
  EXPECT_GT(stats.tiles_accessed, 0u);
  EXPECT_EQ(stats.result_cells, 100u);
}

TEST_F(RasqlEngineTest, UnknownObjectIsNotFound) {
  RasqlEngine engine(store_.get());
  Result<RasqlValue> value = engine.Execute("select nope from nope");
  EXPECT_FALSE(value.ok());
  EXPECT_TRUE(value.status().IsNotFound());
}

TEST_F(RasqlEngineTest, TrimOutsideDomainFails) {
  RasqlEngine engine(store_.get());
  EXPECT_FALSE(engine.Execute("select img[0:50,0:9] from img").ok());
}

}  // namespace
}  // namespace tilestore
