#ifndef MODULARIS_SERVERLESS_S3SELECT_H_
#define MODULARIS_SERVERLESS_S3SELECT_H_

#include <string>
#include <vector>

#include "core/column_table.h"
#include "core/expr.h"
#include "storage/blob_store.h"

/// \file s3select.h
/// The smart-storage substitute (paper §4.5): an engine that executes
/// projections and predicates *inside* the object store over CSV objects
/// and streams back uncompressed CSV. The cost model mirrors what the
/// paper measured (§5.1.2): server-side scanning is fast, but the result
/// comes back as uncompressed CSV over the slow serverless link — which is
/// why S3SelectScan loses to ParquetScan until the provider improves the
/// service.

namespace modularis::serverless {

struct S3SelectOptions {
  /// Storage-side scan throughput per request.
  double scan_bytes_per_sec = 400e6;
  bool throttle = true;
};

/// Executes SELECT <projection> FROM s3object WHERE <predicate> over a
/// CSV object. Thread-safe.
class S3SelectEngine {
 public:
  S3SelectEngine(storage::BlobStore* store, S3SelectOptions options)
      : store_(store), options_(options) {}

  /// Runs the pushdown query over object `key` (CSV rows of `schema`).
  /// `projection` lists output columns (empty = all); `predicate` may be
  /// null; one that evaluates to a non-numeric value is InvalidArgument,
  /// as in Filter. The CSV result transfer is charged to `client` (the
  /// worker's connection), modelling the streamed response.
  Result<std::string> Select(const std::string& key, const Schema& schema,
                             const std::vector<int>& projection,
                             const ExprPtr& predicate,
                             storage::BlobClient* client) const;

  storage::BlobStore* store() const { return store_; }
  const S3SelectOptions& options() const { return options_; }

 private:
  storage::BlobStore* store_;
  S3SelectOptions options_;
};

}  // namespace modularis::serverless

#endif  // MODULARIS_SERVERLESS_S3SELECT_H_
