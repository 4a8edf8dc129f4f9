// The row store under random operation sequences.
//
// `Relation` and `CountedRelation` keep their rows in slots, find them
// through a table of slot ids and index them through key chains
// (`relational/row_store.h`).  Each seeded sequence mixes inserts, erases,
// counted adds (some of which must be refused), probes, scans, copies and
// moves, and checks the relations against a `std::map` oracle after every
// step.  Keys come from a small domain, so index chains grow long and the
// erased rows are often the head, the middle or the tail of a chain.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "relational/relation.h"
#include "relational/row_store.h"
#include "relational/schema.h"
#include "relational/tuple.h"
#include "util/error.h"
#include "util/random.h"

namespace mview {
namespace {

Schema RowSchema() {
  return Schema({{"k", ValueType::kInt64},
                 {"s", ValueType::kString},
                 {"v", ValueType::kInt64}});
}

// A uniform pick in [0, n).
uint64_t Pick(Rng* rng, uint64_t n) {
  return static_cast<uint64_t>(rng->Uniform(0, static_cast<int64_t>(n) - 1));
}

// A row over a small domain: 6 keys, 3 strings (one stored out of line),
// 400 payloads.
Tuple RandomRow(Rng* rng) {
  static const char* const kStrings[] = {"a", "bb",
                                         "a string longer than fifteen"};
  return Tuple{Value(static_cast<int64_t>(Pick(rng, 6))),
               Value(kStrings[Pick(rng, 3)]),
               Value(static_cast<int64_t>(Pick(rng, 400)))};
}

std::vector<Tuple> Sorted(const Relation& r) { return r.ToSortedVector(); }

std::vector<Tuple> Keys(const std::map<Tuple, int64_t>& oracle) {
  std::vector<Tuple> out;
  for (const auto& [t, c] : oracle) out.push_back(t);
  return out;
}

// Every index probe and the full scan agree with the oracle.
void ExpectMatches(const Relation& r, const std::map<Tuple, int64_t>& oracle) {
  ASSERT_EQ(r.size(), oracle.size());
  ASSERT_EQ(Sorted(r), Keys(oracle));
  EXPECT_EQ(r.memory().live,
            static_cast<int64_t>(oracle.size() *
                                 (sizeof(Tuple) + 3 * sizeof(Value))));
  for (size_t attr : r.IndexedAttributes()) {
    std::map<Value, std::vector<Tuple>> want;
    for (const auto& [t, c] : oracle) want[t.at(attr)].push_back(t);
    for (const Value& key : {Value(0), Value(3), Value(5), Value(9),
                             Value("a"), Value("bb"), Value("zz")}) {
      if (key.type() != r.schema().attributes()[attr].type) continue;
      std::vector<Tuple> got;
      for (const Tuple& t : r.Probe(attr, key)) got.push_back(t);
      std::sort(got.begin(), got.end());
      EXPECT_EQ(got, want[key]) << "probe #" << attr << " = " << key;
    }
  }
}

void ExpectMatches(const CountedRelation& r,
                   const std::map<Tuple, int64_t>& oracle) {
  ASSERT_EQ(r.size(), oracle.size());
  int64_t total = 0;
  std::vector<std::pair<Tuple, int64_t>> want;
  for (const auto& [t, c] : oracle) {
    want.emplace_back(t, c);
    total += c;
  }
  EXPECT_EQ(r.ToSortedVector(), want);
  EXPECT_EQ(r.TotalCount(), total);
}

class RowStorePropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RowStorePropertyTest, RelationMatchesOracle) {
  Rng rng(GetParam());
  Relation r(RowSchema());
  r.CreateIndex("k");
  std::map<Tuple, int64_t> oracle;
  int64_t max_mapped = 0;
  for (int step = 0; step < 3000; ++step) {
    SCOPED_TRACE("step " + std::to_string(step));
    const uint64_t op = Pick(&rng, 100);
    if (op < 55) {
      Tuple t = RandomRow(&rng);
      const bool fresh = oracle.emplace(t, 1).second;
      ASSERT_EQ(r.Insert(t), fresh);
    } else if (op < 85) {
      // Mostly a stored row, so chains lose heads, middles and tails.
      Tuple t = RandomRow(&rng);
      if (!oracle.empty() && Pick(&rng, 4) != 0) {
        auto it = oracle.begin();
        std::advance(it, Pick(&rng, oracle.size()));
        t = it->first;
      }
      ASSERT_EQ(r.Erase(t), oracle.erase(t) == 1);
    } else if (op < 90) {
      Relation copy(r);
      ExpectMatches(copy, oracle);
      // The copy is independent of the original.
      copy.Insert(Tuple{Value(99), Value("copy"), Value(0)});
      ASSERT_FALSE(r.Contains(Tuple{Value(99), Value("copy"), Value(0)}));
      copy.Erase(Tuple{Value(99), Value("copy"), Value(0)});
      r = Pick(&rng, 2) == 0 ? copy : Relation(std::move(copy));
    } else if (op < 92) {
      r.CreateIndex(Pick(&rng, 2) == 0 ? "s" : "k");
    }
    if (step == 2000) {
      // Empty it through erases only: chunks stay, slots recycle.
      for (const Tuple& t : Keys(oracle)) ASSERT_TRUE(r.Erase(t));
      oracle.clear();
    }
    if (step % 10 == 0 || op >= 85) ExpectMatches(r, oracle);
    const Tuple probe = RandomRow(&rng);
    ASSERT_EQ(r.Contains(probe), oracle.count(probe) == 1);
    max_mapped = std::max(max_mapped, r.memory().mapped);
  }
  ExpectMatches(r, oracle);
  EXPECT_GT(max_mapped, 0) << "the rows never reached a mapped chunk";
}

TEST_P(RowStorePropertyTest, CountedRelationMatchesOracle) {
  Rng rng(GetParam());
  CountedRelation a(RowSchema());
  CountedRelation b(RowSchema());
  std::map<Tuple, int64_t> oa;
  std::map<Tuple, int64_t> ob;
  auto add = [&](CountedRelation* r, std::map<Tuple, int64_t>* o,
                 Tuple t, int64_t c) {
    const int64_t now = o->count(t) ? o->at(t) : 0;
    if (now + c < 0) {
      const size_t before = r->size();
      EXPECT_THROW(r->Add(t, c), Error);
      ASSERT_EQ(r->size(), before);  // a refused add changes nothing
      return;
    }
    if (Pick(&rng, 2) == 0) {
      r->Add(Tuple(t), c);  // the consuming overload
    } else {
      r->Add(t, c);
    }
    if (now + c == 0) {
      o->erase(t);
    } else {
      (*o)[t] = now + c;
    }
  };
  for (int step = 0; step < 3000; ++step) {
    SCOPED_TRACE("step " + std::to_string(step));
    const uint64_t op = Pick(&rng, 100);
    const bool on_a = Pick(&rng, 2) == 0;
    CountedRelation* r = on_a ? &a : &b;
    std::map<Tuple, int64_t>* o = on_a ? &oa : &ob;
    if (op < 70) {
      add(r, o, RandomRow(&rng), static_cast<int64_t>(Pick(&rng, 7)) - 3);
    } else if (op < 80 && !o->empty()) {
      auto it = o->begin();
      std::advance(it, Pick(&rng, o->size()));
      add(r, o, it->first, -it->second);  // drop a stored row entirely
    } else if (op < 85) {
      a.CancelWith(&b);
      for (auto it = oa.begin(); it != oa.end();) {
        auto hit = ob.find(it->first);
        if (hit == ob.end()) {
          ++it;
          continue;
        }
        const int64_t c = std::min(it->second, hit->second);
        if ((hit->second -= c) == 0) ob.erase(hit);
        if ((it->second -= c) == 0) {
          it = oa.erase(it);
        } else {
          ++it;
        }
      }
    } else if (op < 92) {
      CountedRelation copy = *r;
      ASSERT_TRUE(copy.SameContents(*r));
      *r = Pick(&rng, 2) == 0 ? copy : CountedRelation(std::move(copy));
    } else if (op < 94) {
      r->Clear();
      o->clear();
    }
    ExpectMatches(a, oa);
    ExpectMatches(b, ob);
    const Tuple probe = RandomRow(&rng);
    ASSERT_EQ(a.Count(probe), oa.count(probe) ? oa.at(probe) : 0);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RowStorePropertyTest,
                         ::testing::Values(1, 2, 3, 4, 5));

TEST(RowStoreTest, StoredRowsStayPutWhileStored) {
  Relation r(Schema::OfInts({"a"}));
  r.Insert(Tuple{Value(0)});
  const Tuple* first = nullptr;
  r.Scan([&](const Tuple& t) { first = &t; });
  const Value* value = &first->values()[0];
  // Chunks are never moved, so growth leaves the first row where it was.
  for (int64_t i = 1; i < 100000; ++i) r.Insert(Tuple{Value(i)});
  const Tuple* again = nullptr;
  r.Scan([&](const Tuple& t) {
    if (t.at(0) == Value(0)) again = &t;
  });
  EXPECT_EQ(again, first);
  EXPECT_EQ(&again->values()[0], value);
  // A copy of a stored row owns its values.
  Tuple copy = *first;
  r.Erase(Tuple{Value(0)});
  EXPECT_EQ(copy, Tuple{Value(0)});
}

#if defined(__SANITIZE_ADDRESS__)
// Under AddressSanitizer an erased row's slot is poisoned until it is
// reused, so reading through a reference kept past `Erase` is reported.
TEST(RowStoreDeathTest, ReadingAnErasedRowIsReported) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  Relation r(Schema::OfInts({"a", "b"}));
  r.Insert(Tuple{Value(1), Value(2)});
  const Tuple* stored = nullptr;
  r.Scan([&](const Tuple& t) { stored = &t; });
  r.Erase(Tuple{Value(1), Value(2)});
  EXPECT_DEATH(
      {
        volatile int64_t sink = stored->values()[0].AsInt64();
        (void)sink;
      },
      "use-after-poison");
}
#endif

}  // namespace
}  // namespace mview
