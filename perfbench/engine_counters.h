// minidb and simio counters read before and after a measured phase, and
// the per-layer metrics their difference gives.
#ifndef PERFBENCH_ENGINE_COUNTERS_H_
#define PERFBENCH_ENGINE_COUNTERS_H_

#include <cstdint>

#include "perfbench/bench.h"
#include "src/minidb/engine.h"

namespace perfbench {

// Span name of one Execute call, by transaction type.
inline const char* ExecuteSpanName(minidb::TxnType type) {
  switch (type) {
    case minidb::TxnType::kNewOrder:
      return "minidb.execute.new_order";
    case minidb::TxnType::kPayment:
      return "minidb.execute.payment";
    case minidb::TxnType::kOrderStatus:
      return "minidb.execute.order_status";
    case minidb::TxnType::kDelivery:
      return "minidb.execute.delivery";
    case minidb::TxnType::kStockLevel:
      return "minidb.execute.stock_level";
  }
  return "minidb.execute.unknown";
}

struct EngineCounters {
  uint64_t committed = 0;
  minidb::RedoLogStats redo;
  minidb::BufferPoolStats pool;
  minidb::LockStats locks;
  uint64_t data_reads = 0;
  uint64_t fsyncs = 0;

  static EngineCounters Read(minidb::Engine& engine) {
    EngineCounters c;
    c.committed = engine.committed_count();
    c.redo = engine.redo_log().stats();
    c.pool = engine.buffer_pool().stats();
    c.locks = engine.lock_manager().stats();
    c.data_reads = engine.data_disk().reads();
    c.fsyncs = engine.data_disk().fsyncs() + engine.log_disk().fsyncs();
    return c;
  }
};

// minidb.redo.*, minidb.buf_pool.*, minidb.lock.* and simio.* over the
// phase between `before` and `after`.
inline void SetEngineLayerMetrics(const EngineCounters& before,
                                  const EngineCounters& after,
                                  RunResult* result) {
  const double txns = static_cast<double>(after.committed - before.committed);
  const uint64_t flushes =
      (after.redo.leader_flushes - before.redo.leader_flushes) +
      (after.redo.background_flushes - before.redo.background_flushes);
  const uint64_t batched =
      after.redo.batched_records - before.redo.batched_records;
  result->Layer("minidb.redo.commit_waits",
                static_cast<double>(after.redo.commit_waits -
                                    before.redo.commit_waits));
  result->Layer("minidb.redo.records_per_flush",
                flushes == 0 ? 0.0
                             : static_cast<double>(batched) /
                                   static_cast<double>(flushes));
  result->Layer("minidb.buf_pool.mutex_wait_ms",
                static_cast<double>(after.pool.mutex_wait_ns -
                                    before.pool.mutex_wait_ns) /
                    1e6);
  result->Layer(
      "minidb.lock.wait_ms",
      static_cast<double>(after.locks.wait_ns - before.locks.wait_ns) / 1e6);
  if (txns > 0) {
    result->Layer("simio.fsyncs_per_txn",
                  static_cast<double>(after.fsyncs - before.fsyncs) / txns);
    result->Layer(
        "simio.reads_per_txn",
        static_cast<double>(after.data_reads - before.data_reads) / txns);
  }
}

}  // namespace perfbench

#endif  // PERFBENCH_ENGINE_COUNTERS_H_
