#include "server/session_manager.hpp"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <utility>

#include "shell/eco_journal.hpp"
#include "util/input.hpp"
#include "util/strings.hpp"

namespace mgba::server {

namespace {

bool is_setup_command(const std::string& name) {
  return name == "read_library" || name == "read_derates" ||
         name == "read_netlist" || name == "read_corners";
}

shell::InterpreterOptions server_interpreter_options() {
  shell::InterpreterOptions options;
  // Frozen name tables let read-only commands render node names without
  // touching the live Design from reader threads.
  options.snapshot_names = true;
  return options;
}

}  // namespace

ServerSession::ServerSession(std::uint64_t id, const ServerOptions& options)
    : id_(id),
      interp_(sink_, server_interpreter_options()),
      last_active_(std::chrono::steady_clock::now()) {
  if (!options.state_dir.empty()) {
    recipe_path_ =
        options.state_dir + "/session-" + std::to_string(id) + ".recipe";
    journal_path_ =
        options.state_dir + "/session-" + std::to_string(id) + ".eco";
    recipe_out_.open(recipe_path_, std::ios::trunc);
    journal_out_.open(journal_path_, std::ios::trunc);
    if (journal_out_.is_open()) {
      shell::EcoJournal::write_header(journal_out_);
      journal_out_.flush();
    }
  }
  writer_ = std::thread([this] { writer_loop(); });
}

ServerSession::~ServerSession() {
  {
    std::lock_guard<std::mutex> lock(queue_mutex_);
    stopping_ = true;
  }
  queue_cv_.notify_all();
  if (writer_.joinable()) writer_.join();
  if (recipe_out_.is_open()) recipe_out_.flush();
  if (journal_out_.is_open()) journal_out_.flush();
}

void ServerSession::touch() {
  std::lock_guard<std::mutex> lock(view_mutex_);
  last_active_ = std::chrono::steady_clock::now();
}

bool ServerSession::evictable(std::chrono::steady_clock::time_point now,
                              double idle_timeout_s) const {
  if (attached_.load() > 0) return false;
  std::lock_guard<std::mutex> lock(view_mutex_);
  const auto idle = std::chrono::duration<double>(now - last_active_);
  return idle.count() > idle_timeout_s;
}

std::vector<shell::CommandResult> ServerSession::execute(
    const std::vector<std::string>& lines) {
  touch();
  if (lines.empty()) return {};
  const bool all_read_only =
      std::all_of(lines.begin(), lines.end(), [this](const std::string& l) {
        return interp_.classify_read_only(l);
      });
  if (!all_read_only) return run_on_writer(lines);

  // Reader path: answer on this connection thread from the published
  // view. The view is a pinned COW snapshot — while the writer is inside
  // an ECO bracket it is the pre-ECO version — so every answer is
  // snapshot-isolated and bit-identical to a frozen twin Timer.
  shell::SessionView view;
  {
    std::lock_guard<std::mutex> lock(view_mutex_);
    view = published_;
  }
  std::vector<shell::CommandResult> results;
  results.reserve(lines.size());
  for (const std::string& line : lines) {
    results.push_back(interp_.execute_query(line, view));
  }
  return results;
}

std::vector<shell::CommandResult> ServerSession::run_on_writer(
    const std::vector<std::string>& lines) {
  auto job = std::make_unique<Job>();
  job->lines = lines;
  std::future<std::vector<shell::CommandResult>> done = job->done.get_future();
  {
    std::lock_guard<std::mutex> lock(queue_mutex_);
    if (stopping_) {
      shell::CommandResult r;
      r.status = shell::CommandStatus::EngineError;
      r.error = "session is shutting down";
      return std::vector<shell::CommandResult>(lines.size(), r);
    }
    queue_.push_back(std::move(job));
  }
  queue_cv_.notify_one();
  return done.get();
}

void ServerSession::writer_loop() {
  while (true) {
    std::unique_ptr<Job> job;
    {
      std::unique_lock<std::mutex> lock(queue_mutex_);
      queue_cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) break;  // stopping_ with a drained queue
      job = std::move(queue_.front());
      queue_.pop_front();
      busy_ = true;
    }
    std::vector<shell::CommandResult> results;
    results.reserve(job->lines.size());
    for (const std::string& line : job->lines) {
      shell::CommandResult r = interp_.execute_line(line);
      if (r.ok()) sync_durability(line);
      publish();
      results.push_back(std::move(r));
    }
    job->done.set_value(std::move(results));
    {
      std::lock_guard<std::mutex> lock(queue_mutex_);
      busy_ = false;
    }
    idle_cv_.notify_all();
  }
}

void ServerSession::publish() {
  shell::SessionView view = interp_.current_view();
  std::lock_guard<std::mutex> lock(view_mutex_);
  published_ = std::move(view);
}

void ServerSession::sync_durability(const std::string& line) {
  if (recipe_path_.empty()) return;
  const TokenizeResult tok = tokenize_line(line);
  if (tok.ok() && !tok.tokens.empty() && is_setup_command(tok.tokens[0]) &&
      recipe_out_.is_open()) {
    recipe_out_ << line << '\n';
    recipe_out_.flush();
  }
  if (!journal_out_.is_open()) return;
  const auto& txns = interp_.session().journal().transactions();
  if (txns.size() < journaled_txns_) {
    // undo_eco or a session reset shrank the committed list: rewrite the
    // file so it mirrors the journal exactly.
    journal_out_.close();
    journal_out_.open(journal_path_, std::ios::trunc);
    shell::EcoJournal::write_header(journal_out_);
    for (const shell::EcoTransaction& txn : txns) {
      shell::EcoJournal::write_transaction(journal_out_, txn);
    }
    journaled_txns_ = txns.size();
    journal_out_.flush();
    return;
  }
  if (txns.size() == journaled_txns_) return;
  for (std::size_t i = journaled_txns_; i < txns.size(); ++i) {
    shell::EcoJournal::write_transaction(journal_out_, txns[i]);
  }
  journaled_txns_ = txns.size();
  journal_out_.flush();
}

std::string ServerSession::recover_from(const std::string& recipe_path,
                                        const std::string& journal_path) {
  std::ifstream recipe(recipe_path);
  if (!recipe) return "no saved recipe at " + recipe_path;
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(recipe, line)) {
    if (!line.empty()) lines.push_back(line);
  }
  if (std::ifstream(journal_path).good()) {
    lines.push_back("replay_eco " + quote(journal_path));
  }
  const std::vector<shell::CommandResult> results = execute(lines);
  for (std::size_t i = 0; i < results.size(); ++i) {
    if (!results[i].ok()) {
      return str_format("recovery command '%s' failed: %s", lines[i].c_str(),
                        results[i].error.c_str());
    }
  }
  return "";
}

void ServerSession::drain() {
  std::unique_lock<std::mutex> lock(queue_mutex_);
  idle_cv_.wait(lock, [this] { return queue_.empty() && !busy_; });
  // No writer job in flight: the streams are quiescent; flush them.
  if (recipe_out_.is_open()) recipe_out_.flush();
  if (journal_out_.is_open()) journal_out_.flush();
}

// --- SessionManager --------------------------------------------------------

SessionManager::SessionManager(ServerOptions options)
    : options_(std::move(options)) {
  // A restarted daemon must never hand out an id whose state files a dead
  // session left behind — a new session's streams truncate its own files,
  // which would destroy exactly the journal a later `recover` needs.
  if (options_.state_dir.empty()) return;
  std::error_code ec;
  for (const auto& entry :
       std::filesystem::directory_iterator(options_.state_dir, ec)) {
    const std::string name = entry.path().filename().string();
    unsigned long long id = 0;
    if (std::sscanf(name.c_str(), "session-%llu.", &id) == 1) {
      next_id_ = std::max(next_id_, static_cast<std::uint64_t>(id) + 1);
    }
  }
}

SessionManager::~SessionManager() { shutdown(); }

std::shared_ptr<ServerSession> SessionManager::create(std::string& error) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (sessions_.size() >= options_.max_sessions) {
    error = str_format("session limit reached (%zu)", options_.max_sessions);
    return nullptr;
  }
  const std::uint64_t id = next_id_++;
  auto session = std::make_shared<ServerSession>(id, options_);
  session->attach();
  sessions_.emplace(id, session);
  return session;
}

std::shared_ptr<ServerSession> SessionManager::attach(std::uint64_t id,
                                                      std::string& error) {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = sessions_.find(id);
  if (it == sessions_.end()) {
    error = str_format("no session %llu", static_cast<unsigned long long>(id));
    return nullptr;
  }
  it->second->attach();
  return it->second;
}

std::shared_ptr<ServerSession> SessionManager::recover(std::uint64_t saved_id,
                                                       std::string& error) {
  if (options_.state_dir.empty()) {
    error = "recovery needs a state dir (--state-dir)";
    return nullptr;
  }
  const std::string base =
      options_.state_dir + "/session-" + std::to_string(saved_id);
  std::shared_ptr<ServerSession> session;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (sessions_.size() >= options_.max_sessions) {
      error = str_format("session limit reached (%zu)", options_.max_sessions);
      return nullptr;
    }
    session = std::make_shared<ServerSession>(next_id_++, options_);
  }
  // Replay outside the manager lock — recovery re-times a whole design.
  if (std::string err = session->recover_from(base + ".recipe", base + ".eco");
      !err.empty()) {
    error = std::move(err);
    return nullptr;
  }
  std::lock_guard<std::mutex> lock(mutex_);
  session->attach();
  sessions_.emplace(session->id(), session);
  return session;
}

std::size_t SessionManager::evict_idle() {
  std::vector<std::shared_ptr<ServerSession>> victims;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    const auto now = std::chrono::steady_clock::now();
    for (auto it = sessions_.begin(); it != sessions_.end();) {
      if (it->second->evictable(now, options_.idle_timeout_s)) {
        victims.push_back(it->second);
        it = sessions_.erase(it);
      } else {
        ++it;
      }
    }
  }
  // Destroyed here, outside the lock (each destructor joins a thread).
  return victims.size();
}

std::vector<std::uint64_t> SessionManager::ids() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::uint64_t> out;
  out.reserve(sessions_.size());
  for (const auto& [id, session] : sessions_) out.push_back(id);
  return out;
}

std::size_t SessionManager::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return sessions_.size();
}

void SessionManager::shutdown() {
  std::vector<std::shared_ptr<ServerSession>> all;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (auto& [id, session] : sessions_) all.push_back(session);
    sessions_.clear();
  }
  for (const auto& session : all) session->drain();
}

}  // namespace mgba::server
