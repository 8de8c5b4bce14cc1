#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <fstream>
#include <mutex>
#include <sstream>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "util/csv.h"
#include "util/sharded_counter.h"
#include "util/text_table.h"
#include "util/thread_pool.h"

namespace unicorn {
namespace {

TEST(CsvTest, EscapePlainFieldUnchanged) { EXPECT_EQ(CsvEscape("hello"), "hello"); }

TEST(CsvTest, EscapeCommaQuotes) { EXPECT_EQ(CsvEscape("a,b"), "\"a,b\""); }

TEST(CsvTest, EscapeEmbeddedQuote) { EXPECT_EQ(CsvEscape("say \"hi\""), "\"say \"\"hi\"\"\""); }

TEST(CsvTest, EscapeNewline) { EXPECT_EQ(CsvEscape("a\nb"), "\"a\nb\""); }

TEST(CsvTest, WritesRowsToFile) {
  const std::string path = "/tmp/unicorn_csv_test.csv";
  {
    CsvWriter writer(path);
    ASSERT_TRUE(writer.ok());
    writer.WriteRow({"x", "y"});
    writer.WriteNumericRow({1.5, 2.25});
  }
  std::ifstream in(path);
  std::string line1;
  std::string line2;
  std::getline(in, line1);
  std::getline(in, line2);
  EXPECT_EQ(line1, "x,y");
  EXPECT_EQ(line2, "1.5,2.25");
  std::remove(path.c_str());
}

TEST(CsvTest, ReaderRoundTripsWriterOutput) {
  const std::string path = "/tmp/unicorn_csv_roundtrip_test.csv";
  {
    CsvWriter writer(path);
    ASSERT_TRUE(writer.ok());
    writer.WriteRow({"plain", "with,comma", "with \"quote\"", "multi\nline"});
    writer.WriteNumericRow({0.1, -2.5e-17, 3.0}, 17);
  }
  CsvReader reader(path);
  ASSERT_TRUE(reader.ok());
  std::vector<std::string> row;
  ASSERT_TRUE(reader.ReadRow(&row));
  EXPECT_EQ(row, (std::vector<std::string>{"plain", "with,comma", "with \"quote\"",
                                           "multi\nline"}));
  ASSERT_TRUE(reader.ReadRow(&row));
  ASSERT_EQ(row.size(), 3u);
  EXPECT_EQ(std::stod(row[0]), 0.1);  // 17 digits round-trip bit-exactly
  EXPECT_EQ(std::stod(row[1]), -2.5e-17);
  EXPECT_FALSE(reader.ReadRow(&row));
  std::remove(path.c_str());
}

TEST(CsvTest, SplitHandlesEmptyAndQuotedFields) {
  EXPECT_EQ(CsvSplit("a,,c"), (std::vector<std::string>{"a", "", "c"}));
  EXPECT_EQ(CsvSplit("\"a,b\",c"), (std::vector<std::string>{"a,b", "c"}));
  EXPECT_EQ(CsvSplit(""), (std::vector<std::string>{""}));
}

TEST(ThreadPoolTest, SubmitRunsTasksAndDrainWaits) {
  ThreadPool pool(2);
  EXPECT_EQ(pool.num_workers(), 2);

  std::atomic<int> ran{0};
  for (int i = 0; i < 16; ++i) {
    pool.Submit([&ran] { ran.fetch_add(1); });
  }
  pool.Drain();
  EXPECT_EQ(ran.load(), 16);

  // Drain on an idle pool returns immediately; the pool is reusable after.
  pool.Drain();
  pool.Submit([&ran] { ran.fetch_add(1); });
  pool.Drain();
  EXPECT_EQ(ran.load(), 17);
}

// Priority is shortest-job-first dispatch order for queued tasks: with the
// single worker held busy, the high-priority submission overtakes earlier
// low-priority ones, and equal priorities keep submission (FIFO) order.
TEST(ThreadPoolTest, HigherPriorityOvertakesQueueFifoOnTies) {
  ThreadPool pool(1);

  std::mutex mu;
  std::condition_variable cv;
  bool release = false;
  std::vector<int> order;
  pool.Submit([&] {  // occupies the lone worker until every task is queued
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return release; });
  });
  const auto record = [&](int id) {
    std::lock_guard<std::mutex> lock(mu);
    order.push_back(id);
  };
  pool.Submit([&, id = 1] { record(id); }, /*priority=*/-10);
  pool.Submit([&, id = 2] { record(id); }, /*priority=*/-10);
  pool.Submit([&, id = 3] { record(id); }, /*priority=*/0);
  pool.Submit([&, id = 4] { record(id); }, /*priority=*/-10);
  {
    std::lock_guard<std::mutex> lock(mu);
    release = true;
  }
  cv.notify_one();
  pool.Drain();
  EXPECT_EQ(order, (std::vector<int>{3, 1, 2, 4}));
}

// Every index runs exactly once, on any pool width and for batch sizes
// around the helper count; back-to-back batches on one pool neither skip
// nor re-run an item (a helper of the first batch that starts late must not
// claim the second batch's items).
TEST(ThreadPoolTest, ParallelForRunsEachIndexOnce) {
  for (const int workers : {0, 3}) {
    ThreadPool pool(workers);
    // 100,000 items: every thread claims many multi-index ranges.
    for (const size_t count : {size_t{0}, size_t{1}, size_t{3}, size_t{1000}, size_t{100000}}) {
      std::vector<std::atomic<int>> first(count);
      std::vector<std::atomic<int>> second(count);
      std::atomic<size_t> sum{0};
      std::atomic<size_t> off_caller{0};
      const std::thread::id caller = std::this_thread::get_id();
      pool.ParallelFor(count, [&](size_t i) {
        first[i].fetch_add(1);
        sum.fetch_add(i);
        if (std::this_thread::get_id() != caller) {
          off_caller.fetch_add(1);
        }
      });
      pool.ParallelFor(count, [&](size_t i) { second[i].fetch_add(1); });
      for (size_t i = 0; i < count; ++i) {
        EXPECT_EQ(first[i].load(), 1) << "workers=" << workers << " count=" << count;
        EXPECT_EQ(second[i].load(), 1) << "workers=" << workers << " count=" << count;
      }
      EXPECT_EQ(sum.load(), count > 0 ? count * (count - 1) / 2 : 0) << "workers=" << workers;
      if (workers == 0) {
        EXPECT_EQ(off_caller.load(), 0u) << "count=" << count;
      }
    }
  }
}

// The batch runs on the caller plus every worker at once: each item waits
// until all workers + 1 items have started, which only completes when that
// many threads claimed one item each (a narrower batch times out). The
// workers' items then outlast the caller's own, and ParallelFor still
// returns only after every item finished.
TEST(ThreadPoolTest, ParallelForRunsOnCallerAndEveryWorker) {
  constexpr int kWorkers = 3;
  ThreadPool pool(kWorkers);
  std::mutex mu;
  std::condition_variable cv;
  int started = 0;
  std::atomic<int> timed_out{0};
  std::atomic<int> finished{0};
  const std::thread::id caller = std::this_thread::get_id();
  pool.ParallelFor(kWorkers + 1, [&](size_t) {
    {
      std::unique_lock<std::mutex> lock(mu);
      ++started;
      cv.notify_all();
      if (!cv.wait_for(lock, std::chrono::seconds(10), [&] { return started == kWorkers + 1; })) {
        timed_out.fetch_add(1);
      }
    }
    if (std::this_thread::get_id() != caller) {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    finished.fetch_add(1);
  });
  EXPECT_EQ(finished.load(), kWorkers + 1);
  EXPECT_EQ(timed_out.load(), 0);
}

// A pool without workers has nobody to hand a task to: Submit runs it
// before returning, so Drain and the destructor never wait on it.
TEST(ThreadPoolTest, WorkerlessPoolRunsSubmitInline) {
  ThreadPool pool(0);
  bool ran = false;
  pool.Submit([&ran] { ran = true; });
  EXPECT_TRUE(ran);
  pool.Drain();
}

// ParallelFor from inside one of the pool's own tasks: the lone worker is
// that task, so its helper cannot start until the batch is over — the
// caller runs every item itself instead of waiting, and the late helper
// finds nothing left to claim.
TEST(ThreadPoolTest, ParallelForInsideOwnTaskRunsInline) {
  ThreadPool pool(1);
  std::vector<int> hits(64, 0);
  pool.Submit([&] { pool.ParallelFor(hits.size(), [&](size_t i) { ++hits[i]; }); });
  pool.Drain();
  EXPECT_EQ(hits, std::vector<int>(64, 1));
}

// Concurrent increments from more threads than cells all land: the sum is
// exact once the writers are joined.
TEST(ShardedCounterTest, SumsEveryThreadsIncrements) {
  constexpr int kThreads = 12;
  constexpr long long kIncrements = 20000;
  ShardedCounter counter;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&counter, t] {
      for (long long i = 0; i < kIncrements; ++i) {
        counter.Increment();
      }
      counter.Add(t);
    });
  }
  for (auto& th : threads) {
    th.join();
  }
  EXPECT_EQ(counter.Value(), kThreads * kIncrements + kThreads * (kThreads - 1) / 2);
  counter.Reset();
  EXPECT_EQ(counter.Value(), 0);
}

// Threads take cells round-robin in first-use order, so any kCounterShards
// threads that start counting one after another own distinct cells.
TEST(ShardedCounterTest, ConsecutiveThreadsTakeDistinctCells) {
  std::vector<size_t> cells;
  for (size_t t = 0; t < kCounterShards; ++t) {
    std::thread([&cells] { cells.push_back(CounterShard()); }).join();
  }
  std::sort(cells.begin(), cells.end());
  EXPECT_EQ(std::unique(cells.begin(), cells.end()), cells.end());
  EXPECT_LT(cells.back(), kCounterShards);
}

TEST(TextTableTest, RendersHeaderAndRows) {
  TextTable table({"name", "value"});
  table.AddRow({"alpha", "1"});
  table.AddRow({"beta", "2"});
  const std::string out = table.Render();
  EXPECT_NE(out.find("name"), std::string::npos);
  EXPECT_NE(out.find("alpha"), std::string::npos);
  EXPECT_NE(out.find("beta"), std::string::npos);
}

TEST(TextTableTest, NumericRowFormatting) {
  TextTable table({"label", "a", "b"});
  table.AddRow("row", {1.234, 5.678}, 1);
  const std::string out = table.Render();
  EXPECT_NE(out.find("1.2"), std::string::npos);
  EXPECT_NE(out.find("5.7"), std::string::npos);
}

TEST(TextTableTest, ShortRowsPadded) {
  TextTable table({"a", "b", "c"});
  table.AddRow({"only"});
  EXPECT_NE(table.Render().find("only"), std::string::npos);
}

TEST(TextTableTest, FormatDoublePrecision) {
  EXPECT_EQ(FormatDouble(3.14159, 2), "3.14");
  EXPECT_EQ(FormatDouble(3.14159, 0), "3");
  EXPECT_EQ(FormatDouble(-1.5, 1), "-1.5");
}

}  // namespace
}  // namespace unicorn
