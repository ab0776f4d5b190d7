#include "event_queue.hh"

#include "base/logging.hh"
#include "base/thread_safety.hh"

namespace klebsim::sim
{

Event::Event(int priority) : priority_(priority)
{
}

Event::~Event()
{
    panic_if(scheduled(),
             "event '", name(), "' destroyed while scheduled");
}

EventFunctionWrapper::EventFunctionWrapper(InlineCallable fn,
                                           std::string name,
                                           int priority)
    : Event(priority), fn_(std::move(fn)), name_(std::move(name))
{
}

void
EventFunctionWrapper::process()
{
    fn_();
}

void
EventFunctionWrapper::rearm(InlineCallable fn, std::string_view name,
                            int priority)
{
    fn_ = std::move(fn);
    name_.assign(name); // reuses the retired wrapper's capacity
    setPriority(priority);
}

EventQueue::EventQueue() : curTick_(0), nextSeq_(0), processed_(0)
{
}

EventQueue::~EventQueue()
{
    // Drop any still-scheduled events so their destructors don't
    // panic; delete the ones we own.
    Event *bin = head_;
    while (bin != nullptr) {
        Event *nextBin = bin->nextBin_;
        Event *ev = bin;
        while (ev != nullptr) {
            Event *next = ev->nextInBin_;
            ev->queue_ = nullptr;
            ev->nextBin_ = nullptr;
            ev->nextInBin_ = nullptr;
            ev->binTail_ = nullptr;
            if (ev->autoDelete())
                delete ev;
            ev = next;
        }
        bin = nextBin;
    }
    head_ = nullptr;
    size_ = 0;
    while (freeWrappers_ != nullptr) {
        EventFunctionWrapper *w = freeWrappers_;
        freeWrappers_ = w->poolNext_;
        delete w;
    }
}

KLEB_HOT void
EventQueue::insert(Event *ev)
{
    Event **link = &head_;
    while (*link != nullptr && binBefore(*link, ev))
        link = &(*link)->nextBin_;
    Event *bin = *link;
    if (bin != nullptr && bin->when_ == ev->when_ &&
        bin->priority_ == ev->priority_) {
        if (tieSalt_ == 0) {
            // FIFO: the freshly stamped seq is the largest, so the
            // chain tail is always the right spot — O(1).
            bin->binTail_->nextInBin_ = ev;
            bin->binTail_ = ev;
        } else {
            // Salted: keep the chain ordered by mixSeq so dispatch
            // can keep popping from the front.
            const std::uint64_t key = mixSeq(ev->seq_, tieSalt_);
            if (key < mixSeq(bin->seq_, tieSalt_)) {
                ev->nextInBin_ = bin;
                ev->nextBin_ = bin->nextBin_;
                ev->binTail_ = bin->binTail_;
                bin->nextBin_ = nullptr;
                bin->binTail_ = nullptr;
                *link = ev;
            } else {
                Event *prev = bin;
                while (prev->nextInBin_ != nullptr &&
                       mixSeq(prev->nextInBin_->seq_, tieSalt_) < key)
                    prev = prev->nextInBin_;
                ev->nextInBin_ = prev->nextInBin_;
                prev->nextInBin_ = ev;
                if (ev->nextInBin_ == nullptr)
                    bin->binTail_ = ev;
            }
        }
    } else {
        // First event of a new (tick, priority) bin.
        ev->nextBin_ = bin;
        ev->binTail_ = ev;
        *link = ev;
    }
}

KLEB_HOT Event *
EventQueue::popHead()
{
    Event *ev = head_;
    if (ev->nextInBin_ != nullptr) {
        // Promote the chain successor to bin head.
        Event *succ = ev->nextInBin_;
        succ->nextBin_ = ev->nextBin_;
        succ->binTail_ = ev->binTail_;
        head_ = succ;
    } else {
        head_ = ev->nextBin_;
    }
    ev->nextBin_ = nullptr;
    ev->nextInBin_ = nullptr;
    ev->binTail_ = nullptr;
    return ev;
}

KLEB_HOT void
EventQueue::remove(Event *ev)
{
    Event **link = &head_;
    while (*link != nullptr) {
        Event *bin = *link;
        if (bin == ev) {
            if (ev->nextInBin_ != nullptr) {
                Event *succ = ev->nextInBin_;
                succ->nextBin_ = ev->nextBin_;
                succ->binTail_ = ev->binTail_;
                *link = succ;
            } else {
                *link = ev->nextBin_;
            }
            ev->nextBin_ = nullptr;
            ev->nextInBin_ = nullptr;
            ev->binTail_ = nullptr;
            return;
        }
        if (bin->when_ == ev->when_ && bin->priority_ == ev->priority_) {
            // Same key: ev must live in this bin's chain.
            Event *prev = bin;
            Event *cur = bin->nextInBin_;
            while (cur != nullptr && cur != ev) {
                prev = cur;
                cur = cur->nextInBin_;
            }
            panic_if(cur == nullptr,
                     "scheduled event missing from queue set");
            prev->nextInBin_ = ev->nextInBin_;
            if (bin->binTail_ == ev)
                bin->binTail_ = prev;
            ev->nextInBin_ = nullptr;
            return;
        }
        if (binBefore(ev, bin))
            break; // walked past where ev's bin would sit
        link = &bin->nextBin_;
    }
    panic("scheduled event missing from queue set");
}

KLEB_HOT void
EventQueue::schedule(Event *ev, Tick when)
{
    panic_if(ev == nullptr, "schedule of null event");
    panic_if(ev->scheduled(),
             "event '", ev->name(), "' already scheduled");
    panic_if(when < curTick_, "event '", ev->name(),
             "' scheduled in the past (", when, " < ", curTick_, ")");
    ev->when_ = when;
    ev->seq_ = nextSeq_++;
    ev->queue_ = this;
    insert(ev);
    ++size_;
    if (hasListeners()) {
        for (EventQueueListener *l : listeners_)
            l->onSchedule(*ev, curTick_);
    }
}

KLEB_HOT void
EventQueue::deschedule(Event *ev)
{
    panic_if(ev == nullptr, "deschedule of null event");
    panic_if(ev->queue_ != this,
             "event '", ev->name(), "' not scheduled on this queue");
    remove(ev);
    --size_;
    ev->queue_ = nullptr;
    if (hasListeners()) {
        for (EventQueueListener *l : listeners_)
            l->onDeschedule(*ev, curTick_);
    }
}

void
EventQueue::reschedule(Event *ev, Tick when)
{
    panic_if(ev == nullptr, "reschedule of null event");
    if (ev->scheduled())
        deschedule(ev);
    schedule(ev, when);
}

Event *
EventQueue::scheduleLambda(Tick when, InlineCallable fn,
                           int priority, std::string_view name)
{
    EventFunctionWrapper *ev;
    if (freeWrappers_ != nullptr) {
        ev = freeWrappers_;
        freeWrappers_ = ev->poolNext_;
        ev->poolNext_ = nullptr;
        ev->rearm(std::move(fn), name, priority);
    } else {
        ev = new EventFunctionWrapper(std::move(fn),
                                      std::string(name), priority);
        ev->pooled_ = true;
        ev->setAutoDelete(true);
    }
    schedule(ev, when);
    return ev;
}

void
EventQueue::cancelLambda(Event *ev)
{
    panic_if(ev == nullptr, "cancelLambda of null event");
    panic_if(!ev->autoDelete(),
             "cancelLambda on a caller-owned event");
    // A wrapper that rescheduled itself and was then descheduled (or
    // never re-entered a queue) is still owed its reclamation; only a
    // still-scheduled one needs removing first.
    if (ev->scheduled())
        deschedule(ev);
    releaseAuto(ev);
}

void
EventQueue::releaseAuto(Event *ev)
{
    if (ev->pooled_) {
        auto *w = static_cast<EventFunctionWrapper *>(ev);
        // Drop the captures now — exactly when delete used to run —
        // so RAII types in capture lists keep their release timing.
        w->fn_.reset();
        w->poolNext_ = freeWrappers_;
        freeWrappers_ = w;
    } else {
        delete ev;
    }
}

Tick
EventQueue::nextTick() const
{
    if (head_ == nullptr)
        return maxTick;
    return head_->when_;
}

KLEB_HOT void
EventQueue::dispatch(Event *ev)
{
    ev->queue_ = nullptr;
    curTick_ = ev->when_;
    ++processed_;
    if (hasListeners()) {
        for (EventQueueListener *l : listeners_)
            l->onDispatch(*ev, curTick_);
    }
    ev->process();
    if (ev->autoDelete() && !ev->scheduled())
        releaseAuto(ev);
}

KLEB_HOT bool
EventQueue::runOne()
{
    if (head_ == nullptr)
        return false;
    Event *ev = popHead();
    --size_;
    dispatch(ev);
    return true;
}

KLEB_HOT std::uint64_t
EventQueue::runUntil(Tick limit)
{
    std::uint64_t n = 0;
    while (head_ != nullptr && head_->when_ <= limit) {
        Event *ev = popHead();
        --size_;
        dispatch(ev);
        ++n;
    }
    if (curTick_ < limit)
        curTick_ = limit;
    return n;
}

std::uint64_t
EventQueue::runAll()
{
    std::uint64_t n = 0;
    while (runOne())
        ++n;
    return n;
}

void
EventQueue::addListener(EventQueueListener *l)
{
    panic_if(l == nullptr, "null event-queue listener");
    for (EventQueueListener *existing : listeners_)
        panic_if(existing == l, "event-queue listener added twice");
    listeners_.push_back(l);
}

void
EventQueue::removeListener(EventQueueListener *l)
{
    for (auto it = listeners_.begin(); it != listeners_.end(); ++it) {
        if (*it == l) {
            listeners_.erase(it);
            return;
        }
    }
}

std::uint64_t
EventQueue::mixSeq(std::uint64_t seq, std::uint64_t salt)
{
    if (salt == 0)
        return seq;
    // splitmix64 finalizer: bijective, so distinct seqs never tie.
    std::uint64_t z = seq + salt * 0x9e3779b97f4a7c15ULL;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

void
EventQueue::setTieBreakSalt(std::uint64_t salt)
{
    if (salt == tieSalt_)
        return;
    tieSalt_ = salt;
    // Bin membership depends only on (tick, priority), so the bin
    // list stands; only each bin's chain order follows the salt.
    // Re-link every chain in place by insertion sort on mixSeq —
    // at salt 0 that sorts by seq, restoring FIFO exactly.
    Event **link = &head_;
    while (*link != nullptr) {
        Event *oldHead = *link;
        Event *nextBin = oldHead->nextBin_;
        oldHead->nextBin_ = nullptr;
        oldHead->binTail_ = nullptr;
        Event *sorted = nullptr;
        Event *cur = oldHead;
        while (cur != nullptr) {
            Event *next = cur->nextInBin_;
            const std::uint64_t key = mixSeq(cur->seq_, salt);
            Event **pos = &sorted;
            while (*pos != nullptr &&
                   mixSeq((*pos)->seq_, salt) < key)
                pos = &(*pos)->nextInBin_;
            cur->nextInBin_ = *pos;
            *pos = cur;
            cur = next;
        }
        Event *tail = sorted;
        while (tail->nextInBin_ != nullptr)
            tail = tail->nextInBin_;
        sorted->nextBin_ = nextBin;
        sorted->binTail_ = tail;
        *link = sorted;
        link = &sorted->nextBin_;
    }
}

} // namespace klebsim::sim
