// Kept only for perfbench's replay step (perfbench/turtlebench/serving.cc),
// which times submit + pump. turtled no longer uses this class; ROADMAP
// item 2 deletes it together with that step.
//
// It hosts the stock OracleServer on a private simulator whose clock is
// logical: it advances only when pump() drains submitted work, by the
// modeled service time (batch overhead + per-request cache hit/miss cost).
#pragma once

#include <memory>

#include "serve/oracle_server.h"
#include "serve/oracle_snapshot.h"
#include "sim/simulator.h"

namespace turtle::daemon {

class NetTransport {
 public:
  /// The embedded simulator deliberately gets no registry: its sim.*
  /// engine counters would vary with how requests are batched.
  NetTransport(serve::ServerConfig config,
               std::shared_ptr<const serve::OracleSnapshot> snapshot);

  /// Submits one request; false iff the server shed it (the callback will
  /// never fire).
  bool submit(const serve::Request& request, serve::OracleServer::Callback callback);

  /// Drains the embedded simulator: every admitted request's batch runs
  /// and its callback fires before this returns.
  void pump();

  [[nodiscard]] serve::OracleServer& server() { return server_; }

 private:
  sim::Simulator sim_;
  serve::OracleServer server_;
  bool dirty_ = false;
};

}  // namespace turtle::daemon
