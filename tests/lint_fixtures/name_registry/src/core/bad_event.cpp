// Fixture: journal event name as a string literal instead of a
// registry constant.
struct EventName {
  const char* name;
};
void emit(const EventName& event);
void journal() { emit({"cell.claim"}); }
