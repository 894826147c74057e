"""Bundled default capability registry.

Ten episodes across four scene categories, 37 actions across four
action categories, 15 object types across four object families.  The
catalog is defined as compact tables and expanded into CapabilityRegistry
structures; geometry follows a fixed layout (regions 12 m apart along x,
POIs at fixed offsets inside a 10x10 m footprint).

POI transition maps allow any listed action to follow any other except
immediate repetition; single-action POIs self-loop.  The handover action
is valid at many POIs but never appears in transition maps: it is only
inserted by explicit exchange planning, never free-running chains.
"""

from __future__ import annotations

from .model import ActionCategory, ActionSpec, CapabilityRegistry, EpisodeSpec, PoiSpec, RegionSpec

EXCHANGE_ACTION_KEY = "hand_over_item"

# key: (category, min_s, max_s, requires_object, is_movement_only, verb phrase)
_ACTIONS: dict[str, tuple[str, float, float, bool, bool, str]] = {
    # social
    "greet": ("social", 4, 8, False, False, "greets"),
    "chat": ("social", 6, 14, False, False, "chats"),
    "wave": ("social", 4, 6, False, False, "waves"),
    "handshake": ("social", 4, 6, False, False, "shakes hands"),
    "hug": ("social", 4, 6, False, False, "hugs"),
    "argue": ("social", 6, 12, False, False, "argues"),
    "laugh": ("social", 4, 7, False, False, "laughs"),
    "phone_call": ("social", 6, 14, False, False, "makes a phone call"),
    "toast": ("social", 4, 8, False, False, "raises a toast"),
    "say_goodbye": ("social", 4, 6, False, False, "says goodbye"),
    # manipulation
    "drink_coffee": ("manipulation", 4, 10, True, False, "drinks a coffee"),
    "eat_snack": ("manipulation", 4, 10, True, False, "eats a snack"),
    "read_newspaper": ("manipulation", 6, 14, True, False, "reads the newspaper"),
    "type_on_laptop": ("manipulation", 6, 14, True, False, "types on the laptop"),
    "browse_phone": ("manipulation", 4, 12, True, False, "browses their phone"),
    "pick_up_item": ("manipulation", 4, 6, True, False, "picks up an item"),
    "put_down_item": ("manipulation", 4, 6, True, False, "puts down an item"),
    "hand_over_item": ("manipulation", 4, 8, True, False, "hands over an item"),
    "wipe_table": ("manipulation", 4, 9, False, False, "wipes the table"),
    "pour_water": ("manipulation", 4, 7, True, False, "pours a glass of water"),
    "operate_coffee_machine": ("manipulation", 4, 8, True, False, "operates the coffee machine"),
    "stack_chairs": ("manipulation", 4, 9, False, False, "stacks chairs"),
    # locomotion
    "walk_to": ("locomotion", 2, 10, False, True, "walks over"),
    "jog_to": ("locomotion", 2, 8, False, True, "jogs over"),
    "pace_around": ("locomotion", 4, 10, False, False, "paces around"),
    "stretch_legs": ("locomotion", 4, 8, False, False, "stretches their legs"),
    "climb_stairs": ("locomotion", 4, 9, False, False, "climbs the stairs"),
    "wander": ("locomotion", 5, 12, False, False, "wanders about"),
    # exercise
    "push_ups": ("exercise", 5, 12, False, False, "does push-ups"),
    "squats": ("exercise", 5, 12, False, False, "does squats"),
    "jumping_jacks": ("exercise", 5, 10, False, False, "does jumping jacks"),
    "lift_dumbbell": ("exercise", 5, 12, True, False, "lifts a dumbbell"),
    "yoga_pose": ("exercise", 6, 14, True, False, "holds a yoga pose"),
    "skip_rope": ("exercise", 5, 10, True, False, "skips rope"),
    "plank": ("exercise", 5, 10, False, False, "holds a plank"),
    "lunges": ("exercise", 5, 10, False, False, "does lunges"),
    "cool_down": ("exercise", 4, 8, False, False, "cools down"),
}

_OBJECT_TYPES = (
    # furniture
    "chair", "sofa", "table", "bench",
    # devices
    "laptop", "phone", "coffee_machine", "tablet",
    # consumables
    "cup", "sandwich", "water_bottle", "newspaper",
    # equipment
    "dumbbell", "yoga_mat", "jump_rope",
)

_ACTOR_MODELS = (
    "female_casual", "female_business", "female_sport",
    "male_casual", "male_business", "male_sport",
)

# episode key: (category, [(region name, [(poi name, actions, slots), ...]), ...])
_EPISODES: dict[str, tuple[str, list]] = {
    "apartment": ("residential", [
        ("kitchen", [
            ("counter", ["drink_coffee", "operate_coffee_machine", "pour_water",
                         "eat_snack", "chat", "greet", "hand_over_item"],
             ["cup", "coffee_machine", "water_bottle"]),
            ("table", ["eat_snack", "drink_coffee", "chat", "laugh", "toast",
                       "read_newspaper", "wipe_table", "hand_over_item"],
             ["sandwich", "newspaper", "cup"]),
        ]),
        ("living_room", [
            ("sofa_spot", ["chat", "laugh", "browse_phone", "phone_call",
                           "read_newspaper", "hug", "hand_over_item"],
             ["phone", "newspaper"]),
            ("window", ["wave", "stretch_legs", "pace_around", "phone_call", "chat"],
             []),
        ]),
    ]),
    "suburban_house": ("residential", [
        ("porch", [
            ("bench_seat", ["chat", "greet", "wave", "say_goodbye", "drink_coffee",
                            "hand_over_item"],
             ["cup", "cup"]),
            ("doorway", ["greet", "wave", "say_goodbye", "handshake", "chat"], []),
        ]),
        ("garden", [
            ("lawn", ["stretch_legs", "jumping_jacks", "yoga_pose", "wander",
                      "chat", "laugh"],
             ["yoga_mat"]),
            ("shed", ["pick_up_item", "put_down_item", "wipe_table", "pace_around",
                      "hand_over_item"],
             ["water_bottle", "jump_rope"]),
        ]),
    ]),
    "loft": ("residential", [
        ("studio", [
            ("desk", ["type_on_laptop", "browse_phone", "phone_call",
                      "read_newspaper", "chat", "hand_over_item"],
             ["laptop", "phone", "newspaper"]),
            ("couch", ["chat", "laugh", "hug", "browse_phone", "toast",
                       "hand_over_item"],
             ["phone", "cup"]),
        ]),
        ("mezzanine", [
            ("railing", ["wave", "chat", "phone_call", "pace_around",
                         "climb_stairs"], []),
            ("mat_corner", ["yoga_pose", "plank", "stretch_legs", "cool_down"],
             ["yoga_mat"]),
        ]),
    ]),
    "small_office": ("office", [
        ("open_desks", [
            ("desk_a", ["type_on_laptop", "phone_call", "browse_phone", "chat",
                        "drink_coffee", "hand_over_item"],
             ["laptop", "phone", "cup"]),
            ("desk_b", ["type_on_laptop", "read_newspaper", "chat", "argue",
                        "hand_over_item"],
             ["laptop", "newspaper"]),
        ]),
        ("break_room", [
            ("coffee_corner", ["operate_coffee_machine", "drink_coffee", "chat",
                               "laugh", "greet", "hand_over_item"],
             ["coffee_machine", "cup", "cup"]),
            ("standing_table", ["eat_snack", "chat", "argue", "toast",
                                "wipe_table"],
             ["sandwich"]),
        ]),
    ]),
    "coworking_space": ("office", [
        ("lounge", [
            ("beanbags", ["chat", "laugh", "browse_phone", "hug", "toast",
                          "hand_over_item"],
             ["phone", "cup"]),
            ("bookshelf", ["read_newspaper", "pick_up_item", "put_down_item",
                           "pace_around", "chat"],
             ["newspaper", "tablet"]),
        ]),
        ("meeting_room", [
            ("whiteboard", ["argue", "chat", "phone_call", "pace_around",
                            "handshake"], []),
            ("conference_table", ["type_on_laptop", "chat", "argue", "toast",
                                  "wipe_table", "hand_over_item"],
             ["laptop", "cup"]),
        ]),
    ]),
    "gym": ("fitness", [
        ("weights_area", [
            ("rack", ["lift_dumbbell", "squats", "lunges", "stretch_legs",
                      "hand_over_item"],
             ["dumbbell", "dumbbell", "water_bottle"]),
            ("bench_press", ["lift_dumbbell", "push_ups", "plank", "cool_down"],
             ["dumbbell"]),
        ]),
        ("cardio_zone", [
            ("mat_row", ["yoga_pose", "plank", "jumping_jacks", "skip_rope",
                         "cool_down", "hand_over_item"],
             ["yoga_mat", "jump_rope", "water_bottle"]),
            ("water_station", ["pour_water", "chat", "greet", "stretch_legs",
                               "hand_over_item"],
             ["water_bottle", "cup"]),
        ]),
    ]),
    "sports_hall": ("fitness", [
        ("court", [
            ("center_circle", ["jumping_jacks", "lunges", "squats", "skip_rope",
                               "chat", "hand_over_item"],
             ["jump_rope", "water_bottle"]),
            ("sideline", ["stretch_legs", "cool_down", "chat", "wave", "greet",
                          "stack_chairs"],
             ["water_bottle"]),
        ]),
        ("locker_room", [
            ("benches", ["chat", "say_goodbye", "pick_up_item", "put_down_item",
                         "cool_down", "hand_over_item"],
             ["water_bottle", "phone"]),
        ]),
    ]),
    "cafe": ("hospitality", [
        ("counter_area", [
            ("espresso_bar", ["operate_coffee_machine", "drink_coffee", "chat",
                              "greet", "hand_over_item"],
             ["coffee_machine", "cup", "cup"]),
            ("pastry_case", ["eat_snack", "pick_up_item", "chat", "laugh"],
             ["sandwich", "sandwich"]),
        ]),
        ("seating", [
            ("window_table", ["drink_coffee", "eat_snack", "chat",
                              "read_newspaper", "browse_phone", "toast",
                              "hand_over_item"],
             ["cup", "newspaper", "phone"]),
            ("corner_sofa", ["chat", "laugh", "hug", "browse_phone",
                             "phone_call"],
             ["phone"]),
        ]),
    ]),
    "restaurant": ("hospitality", [
        ("dining_room", [
            ("table_one", ["eat_snack", "toast", "chat", "laugh", "drink_coffee",
                           "hand_over_item"],
             ["sandwich", "cup", "cup"]),
            ("table_two", ["eat_snack", "argue", "chat", "toast", "wipe_table"],
             ["sandwich", "cup"]),
        ]),
        ("bar", [
            ("bar_counter", ["toast", "drink_coffee", "chat", "laugh", "greet",
                             "hand_over_item"],
             ["cup", "cup"]),
        ]),
    ]),
    "hotel_lobby": ("hospitality", [
        ("reception", [
            ("front_desk", ["greet", "handshake", "chat", "phone_call",
                            "hand_over_item"],
             ["phone"]),
            ("luggage_corner", ["pick_up_item", "put_down_item", "pace_around",
                                "chat"],
             ["water_bottle"]),
        ]),
        ("lounge_area", [
            ("armchairs", ["read_newspaper", "chat", "browse_phone",
                           "drink_coffee", "laugh", "hand_over_item"],
             ["newspaper", "cup", "phone"]),
            ("fireplace", ["chat", "toast", "hug", "wave", "say_goodbye"], []),
        ]),
    ]),
}

_REGION_SIZE = (10.0, 10.0, 3.0)
_REGION_SPACING = 12.0
_POI_OFFSETS = ((2.5, 2.5), (7.0, 3.5), (3.5, 7.0), (7.5, 7.5))


def _poi_transitions(valid_actions: list[str]) -> dict[str, tuple[str, ...]]:
    chainable = [a for a in valid_actions if a != EXCHANGE_ACTION_KEY]
    if len(chainable) == 1:
        return {chainable[0]: (chainable[0],)}
    return {a: tuple(x for x in chainable if x != a) for a in chainable}


def build_default_registry() -> CapabilityRegistry:
    actions = {
        key: ActionSpec(
            key=key,
            category=ActionCategory(cat),
            duration_range_s=(float(lo), float(hi)),
            requires_object=req,
            is_movement_only=move,
            verb_phrase=verb,
        )
        for key, (cat, lo, hi, req, move, verb) in _ACTIONS.items()
    }

    episodes = []
    for ep_key, (category, region_rows) in _EPISODES.items():
        regions = []
        for r_index, (region_name, poi_rows) in enumerate(region_rows):
            origin_x = r_index * _REGION_SPACING
            lo = (origin_x, 0.0, 0.0)
            hi = (origin_x + _REGION_SIZE[0], _REGION_SIZE[1], _REGION_SIZE[2])
            pois = []
            for p_index, (poi_name, valid, slots) in enumerate(poi_rows):
                dx, dy = _POI_OFFSETS[p_index % len(_POI_OFFSETS)]
                pois.append(
                    PoiSpec(
                        key=f"{ep_key}.{region_name}.{poi_name}",
                        position=(origin_x + dx, dy, 0.0),
                        valid_actions=tuple(valid),
                        transitions=_poi_transitions(valid),
                        object_slots=tuple(slots),
                    )
                )
            regions.append(
                RegionSpec(
                    key=f"{ep_key}.{region_name}",
                    name=region_name.replace("_", " "),
                    bounds=(lo, hi),
                    pois=tuple(pois),
                )
            )
        episodes.append(EpisodeSpec(key=ep_key, category=category, regions=tuple(regions)))

    return CapabilityRegistry(
        episodes=tuple(episodes),
        actor_models=_ACTOR_MODELS,
        object_types=_OBJECT_TYPES,
        actions=actions,
    )
