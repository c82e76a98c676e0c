// Multi-model serving registry with hot reload.
//
// A ModelRegistry routes requests by model name across several loaded
// RouteNets, each fronted by its own micro-batching InferenceServer. The
// name → model map lives behind a shared_ptr snapshot, so a lookup copies
// one pointer and hot reload follows the temp+rename checkpoint
// discipline translated to memory: load the new model off to the side,
// validate it (RouteNet::load CRC-checks the file and the parameter
// shapes; install() re-counts parameters), then swap the snapshot pointer
// in one step. Readers that grabbed the old snapshot — or hold an
// Entry handle — finish their in-flight requests on the old model; the old
// entry's server drains and its workers join when the last reference
// drops. registry_soak_test hammers exactly this: clients querying at full
// tilt through 100 swaps, every response bitwise equal to one of the two
// snapshots' single-request predict(), clean under -DRN_SANITIZE=thread.
//
// Telemetry: one serve.registry.swap event per successful
// load/install/reload.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/routenet.h"
#include "serve/server.h"

namespace rn::serve {

// Thrown by acquire() for a name absent from the current snapshot.
class UnknownModelError : public std::runtime_error {
 public:
  explicit UnknownModelError(const std::string& name)
      : std::runtime_error("no model named '" + name + "' is loaded") {}
};

class ModelRegistry {
 public:
  // One immutable loaded model + its batcher. Handles pin the entry: a
  // reload swaps the snapshot, but every handle acquired before the swap
  // keeps serving (and finally drains) the old model.
  class Entry {
   public:
    Entry(std::string name, std::string source,
          std::unique_ptr<core::RouteNet> model, std::uint64_t version,
          const ServerConfig& cfg);

    const std::string& name() const { return name_; }
    // File path the model came from; empty for install()ed in-memory
    // models (those cannot be reload()ed).
    const std::string& source() const { return source_; }
    std::uint64_t version() const { return version_; }
    const core::RouteNet& model() const { return *model_; }
    InferenceServer& server() { return *server_; }

   private:
    std::string name_;
    std::string source_;
    std::uint64_t version_;
    // Declared before server_: the server holds a reference to the model
    // and must be destroyed (drained) first.
    std::unique_ptr<core::RouteNet> model_;
    std::unique_ptr<InferenceServer> server_;
  };

  using Handle = std::shared_ptr<Entry>;

  // `server_cfg` is applied to every model's InferenceServer.
  explicit ModelRegistry(ServerConfig server_cfg = {});
  ~ModelRegistry();

  ModelRegistry(const ModelRegistry&) = delete;
  ModelRegistry& operator=(const ModelRegistry&) = delete;

  // Loads a model file, validates it, and atomically swaps it into the
  // snapshot under `name` (replacing any previous version). Returns the
  // new version (1 for a first load, previous + 1 after).
  std::uint64_t load(const std::string& name, const std::string& path);

  // Installs an in-memory model (tests / benches) the same way.
  std::uint64_t install(const std::string& name,
                        std::unique_ptr<core::RouteNet> model);

  // Re-loads `name` from the path of its last load(). Throws for unknown
  // names and for install()ed models with no source path. On a load
  // failure the old snapshot stays in place (swap happens last).
  std::uint64_t reload(const std::string& name);

  // Removes `name` from the snapshot; in-flight handles keep serving.
  void remove(const std::string& name);

  // Snapshot lookup: one pointer copy plus a map find. Throws
  // UnknownModelError for absent names.
  Handle acquire(const std::string& name) const;

  struct ModelInfo {
    std::string name;
    std::string source;
    std::uint64_t version = 0;
    std::size_t parameters = 0;
  };
  std::vector<ModelInfo> list() const;
  std::size_t size() const;

 private:
  using Snapshot = std::map<std::string, Handle>;

  std::uint64_t swap_in(const std::string& name, const std::string& source,
                        std::unique_ptr<core::RouteNet> model);

  // The current snapshot, behind a mutex held only to copy or swap the
  // pointer; a replaced snapshot is released after the mutex. Not
  // std::atomic<std::shared_ptr>: libstdc++ 12's load() drops its inner
  // lock with a relaxed store, so ThreadSanitizer reports its pointer
  // read racing the next store().
  class SnapshotSlot {
   public:
    std::shared_ptr<const Snapshot> load() const {
      std::lock_guard<std::mutex> lock(mu_);
      return ptr_;
    }
    // `next` leaves holding the old snapshot and drops it unlocked.
    void store(std::shared_ptr<const Snapshot> next) {
      std::lock_guard<std::mutex> lock(mu_);
      ptr_.swap(next);
    }

   private:
    mutable std::mutex mu_;
    std::shared_ptr<const Snapshot> ptr_;
  };

  ServerConfig server_cfg_;
  // Writers serialize on mu_ (copy map → mutate → store); readers never
  // take it.
  mutable std::mutex mu_;
  SnapshotSlot snapshot_;
};

}  // namespace rn::serve
